package graph_test

// The incremental updates of State stop at the first proof: FailLink returns
// once the other endpoint is reached, FailSite once every live neighbour is,
// RepairSite adopts a lone neighbouring component's label. These tests hold
// each shortcut to Recompute, the from-scratch path, on the paper's own
// topologies and on the shapes the shortcuts special-case. They live in the
// external test package because the paper's topologies come from
// internal/topo, which imports graph.

import (
	"fmt"
	"slices"
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/rng"
	"quorumkit/internal/topo"
)

// checkAgainstRecompute compares every component query of s with a clone
// rebuilt from scratch over the same up/down status.
func checkAgainstRecompute(t *testing.T, s *graph.State, at string) {
	t.Helper()
	ref := s.Clone()
	ref.Recompute()
	for i := 0; i < s.Graph().N(); i++ {
		if got, want := s.ComponentOf(i), ref.ComponentOf(i); got != want {
			t.Fatalf("%s: ComponentOf(%d) = %d, Recompute %d", at, i, got, want)
		}
		if got, want := s.VotesAt(i), ref.VotesAt(i); got != want {
			t.Fatalf("%s: VotesAt(%d) = %d, Recompute %d", at, i, got, want)
		}
		if got, want := s.SizeAt(i), ref.SizeAt(i); got != want {
			t.Fatalf("%s: SizeAt(%d) = %d, Recompute %d", at, i, got, want)
		}
	}
	if got, want := s.NumComponents(), ref.NumComponents(); got != want {
		t.Fatalf("%s: NumComponents = %d, Recompute %d", at, got, want)
	}
	if got, want := s.MaxComponentVotes(), ref.MaxComponentVotes(); got != want {
		t.Fatalf("%s: MaxComponentVotes = %d, Recompute %d", at, got, want)
	}
	if got, want := s.Representatives(nil), ref.Representatives(nil); !slices.Equal(got, want) {
		t.Fatalf("%s: Representatives %v, Recompute %v", at, got, want)
	}
}

// flap is one status change; op&3 picks the operation, idx the element
// (reduced modulo the site or link count).
type flap struct {
	op  byte
	idx int
}

func (f flap) String() string {
	return fmt.Sprintf("%s(%d)", [...]string{"FailSite", "RepairSite", "FailLink", "RepairLink"}[f.op&3], f.idx)
}

func (f flap) apply(s *graph.State) {
	g := s.Graph()
	switch f.op & 3 {
	case 0:
		s.FailSite(f.idx % g.N())
	case 1:
		s.RepairSite(f.idx % g.N())
	case 2:
		s.FailLink(f.idx % g.M())
	case 3:
		s.RepairLink(f.idx % g.M())
	}
}

// mixedVotes gives sites 0, 1, 2, 0, 1, 2, … votes: weighted, with
// zero-vote sites that change a component's size but not its votes.
func mixedVotes(n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i % 3
	}
	return v
}

// TestStateShortcutsOnPaperTopologies drives seeded flaps through the
// paper's topologies 0, 16, 256 and 4949 (complete) and checks every query
// against Recompute after every operation. The failure bias swings between
// a mostly-up network (where the early exits fire) and a shattered one
// (where the fallbacks do); a clone taken mid-run replays the rest of the
// stream beside the original and must stay equal to it.
func TestStateShortcutsOnPaperTopologies(t *testing.T) {
	for _, chords := range []int{0, 16, 256, 4949} {
		for _, votesName := range []string{"uniform", "mixed"} {
			chords, votesName := chords, votesName
			t.Run(fmt.Sprintf("chords%d/%s", chords, votesName), func(t *testing.T) {
				t.Parallel()
				g := topo.Paper(chords)
				var votes []int
				if votesName == "mixed" {
					votes = mixedVotes(g.N())
				}
				s := graph.NewState(g, votes)
				var twin *graph.State
				src := rng.New(0xc0de ^ uint64(chords))
				const steps = 1200
				failBias := 50
				for step := 0; step < steps; step++ {
					if step%150 == 0 {
						failBias = []int{25, 50, 75}[src.Intn(3)]
					}
					if step == steps/3 {
						twin = s.Clone()
					}
					f := flap{idx: src.Intn(g.N() * g.M())}
					if src.Intn(100) >= failBias {
						f.op |= 1 // a repair, not a failure
					}
					if src.Intn(100) < 55 {
						f.op |= 2 // of a link, not a site
					}
					f.apply(s)
					at := fmt.Sprintf("step %d %v", step, f)
					checkAgainstRecompute(t, s, at)
					if twin != nil {
						f.apply(twin)
						checkAgainstRecompute(t, twin, at+" (clone)")
						for i := 0; i < g.N(); i++ {
							if twin.ComponentOf(i) != s.ComponentOf(i) {
								t.Fatalf("%s: clone says ComponentOf(%d) = %d, original %d",
									at, i, twin.ComponentOf(i), s.ComponentOf(i))
							}
						}
					}
				}
			})
		}
	}
}

// TestStateShortcutShapes walks the cases the shortcuts single out, each a
// short script checked against Recompute after every step.
func TestStateShortcutShapes(t *testing.T) {
	ringChord := graph.Ring(6) // ring 0-1-2-3-4-5-0 plus the chord 1-4
	chord := ringChord.AddEdge(1, 4)
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		script []flap
		// wantRep[i] is ComponentOf(i) after the script, nil to skip.
		wantRep []int
	}{
		{"fail the representative, rest stays whole", graph.Complete(5),
			[]flap{{0, 0}}, []int{-1, 1, 1, 1, 1}},
		{"fail the representative of a ring (full search, no split)", graph.Ring(6),
			[]flap{{0, 0}}, []int{-1, 1, 1, 1, 1, 1}},
		{"fail the representative and split", graph.Star(4),
			[]flap{{0, 0}}, []int{-1, 1, 2, 3}},
		{"fail a cut site that is not the representative", graph.Path(5),
			[]flap{{0, 2}}, []int{0, 0, -1, 3, 3}},
		{"fail a leaf: one live neighbour, nothing to search", graph.Path(4),
			[]flap{{0, 3}}, []int{0, 0, 0, -1}},
		{"repair below the neighbours' representative", graph.Path(4),
			[]flap{{0, 0}, {1, 0}}, []int{0, 0, 0, 0}},
		{"repair above it: adopt the label", graph.Path(4),
			[]flap{{0, 3}, {1, 3}}, []int{0, 0, 0, 0}},
		{"repair a site bridging two components", graph.Path(5),
			[]flap{{0, 2}, {1, 2}}, []int{0, 0, 0, 0, 0}},
		{"repair a site bridging three components", graph.Star(4),
			[]flap{{0, 0}, {1, 0}}, []int{0, 0, 0, 0}},
		{"repair an isolated site", graph.Path(3),
			[]flap{{0, 0}, {0, 1}, {0, 2}, {1, 1}}, []int{-1, 1, -1}},
		{"repair behind a down link", graph.Path(3),
			[]flap{{0, 2}, {2, 1}, {1, 2}}, []int{0, 0, 2}},
		{"fail a chord: other endpoint two hops away", ringChord,
			[]flap{{2, chord}}, []int{0, 0, 0, 0, 0, 0}},
		{"fail a ring link, then the bridge it leaves", graph.Ring(6),
			[]flap{{2, 0}, {2, 3}}, nil},
		{"fail a bridge", graph.Path(4),
			[]flap{{2, 1}}, []int{0, 0, 2, 2}},
		{"fail a dangling link, then a bridge", graph.Ring(5),
			[]flap{{0, 0}, {0, 2}, {2, 0}, {2, 3}}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, votes := range [][]int{nil, mixedVotes(tc.g.N())} {
				s := graph.NewState(tc.g, votes)
				for k, f := range tc.script {
					f.apply(s)
					checkAgainstRecompute(t, s, fmt.Sprintf("step %d %v", k, f))
				}
				for i, want := range tc.wantRep {
					if got := s.ComponentOf(i); got != want {
						t.Fatalf("ComponentOf(%d) = %d after the script, want %d", i, got, want)
					}
				}
			}
		})
	}
}

// FuzzStateFlaps decodes an operation stream from bytes — first byte the
// graph, then (op, index) pairs — and checks State against Recompute after
// every operation, with a clone forked a third of the way in replaying the
// remainder.
func FuzzStateFlaps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0})
	f.Add([]byte{1, 0, 2, 0, 5, 1, 2, 1, 5, 2, 3, 3, 3})
	f.Add([]byte{2, 2, 0, 2, 9, 0, 4, 0, 0, 1, 4, 1, 0})
	f.Add([]byte{3, 0, 0, 0, 1, 0, 2, 1, 1, 2, 7, 3, 7})
	f.Add([]byte{4, 0, 3, 2, 11, 0, 7, 1, 3, 3, 11})
	graphs := []*graph.Graph{
		graph.Ring(9), graph.Path(7), graph.Star(8), graph.Grid(3, 4),
		graph.Complete(6), topo.Build(11, 2), topo.Build(13, 9),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 513 {
			return
		}
		g := graphs[int(data[0])%len(graphs)]
		var votes []int
		if data[0]&0x80 != 0 {
			votes = mixedVotes(g.N())
		}
		s := graph.NewState(g, votes)
		var twin *graph.State
		ops := data[1:]
		for k := 0; k+1 < len(ops); k += 2 {
			if k/2 == len(ops)/6 {
				twin = s.Clone()
			}
			fl := flap{op: ops[k], idx: int(ops[k+1])}
			fl.apply(s)
			at := fmt.Sprintf("op %d %v", k/2, fl)
			checkAgainstRecompute(t, s, at)
			if twin != nil {
				fl.apply(twin)
				checkAgainstRecompute(t, twin, at+" (clone)")
			}
		}
	})
}
