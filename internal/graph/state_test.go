package graph

import (
	"sort"
	"testing"

	"quorumkit/internal/rng"
)

// oracle recomputes component structure from scratch with an independent
// BFS over the exported graph surface — no shared code with State's
// incremental maintenance — so it can serve as ground truth.
type oracle struct {
	g      *Graph
	votes  []int
	siteUp []bool
	linkUp []bool
}

func newOracle(g *Graph, votes []int) *oracle {
	if votes == nil {
		votes = make([]int, g.N())
		for i := range votes {
			votes[i] = 1
		}
	}
	o := &oracle{
		g:      g,
		votes:  votes,
		siteUp: make([]bool, g.N()),
		linkUp: make([]bool, g.M()),
	}
	for i := range o.siteUp {
		o.siteUp[i] = true
	}
	for l := range o.linkUp {
		o.linkUp[l] = true
	}
	return o
}

// components labels every up site with the minimum index of its component
// and returns per-representative vote and size totals.
func (o *oracle) components() (comp []int, votes, size map[int]int) {
	// Adjacency with edge indices, rebuilt each call: the oracle optimizes
	// for obviousness, not speed.
	adj := make([][][2]int, o.g.N()) // adj[u] = {v, edge}
	for l := 0; l < o.g.M(); l++ {
		e := o.g.edges[l]
		adj[e.U] = append(adj[e.U], [2]int{e.V, l})
		adj[e.V] = append(adj[e.V], [2]int{e.U, l})
	}
	comp = make([]int, o.g.N())
	votes, size = map[int]int{}, map[int]int{}
	for i := range comp {
		comp[i] = -1
	}
	for start := 0; start < o.g.N(); start++ {
		if !o.siteUp[start] || comp[start] != -1 {
			continue
		}
		var q, members []int
		seen := map[int]bool{start: true}
		q = append(q, start)
		rep := start
		for len(q) > 0 {
			u := q[0]
			q = q[1:]
			members = append(members, u)
			if u < rep {
				rep = u
			}
			for _, ve := range adj[u] {
				v, l := ve[0], ve[1]
				if !o.linkUp[l] || !o.siteUp[v] || seen[v] {
					continue
				}
				seen[v] = true
				q = append(q, v)
			}
		}
		for _, u := range members {
			comp[u] = rep
			votes[rep] += o.votes[u]
			size[rep]++
		}
	}
	return comp, votes, size
}

// check compares every query State answers against the oracle.
func (o *oracle) check(t *testing.T, s *State, step int) {
	t.Helper()
	comp, votes, size := o.components()
	reps := map[int]bool{}
	maxVotes := 0
	for i := 0; i < o.g.N(); i++ {
		if got := s.ComponentOf(i); got != comp[i] {
			t.Fatalf("step %d: ComponentOf(%d) = %d, oracle %d", step, i, got, comp[i])
		}
		if got, want := s.VotesAt(i), votes[comp[i]]; comp[i] != -1 && got != want {
			t.Fatalf("step %d: VotesAt(%d) = %d, oracle %d", step, i, got, want)
		}
		if comp[i] == -1 && s.VotesAt(i) != 0 {
			t.Fatalf("step %d: down site %d has votes %d", step, i, s.VotesAt(i))
		}
		if got, want := s.SizeAt(i), size[comp[i]]; comp[i] != -1 && got != want {
			t.Fatalf("step %d: SizeAt(%d) = %d, oracle %d", step, i, got, want)
		}
		if got := s.SiteUp(i); got != o.siteUp[i] {
			t.Fatalf("step %d: SiteUp(%d) = %v", step, i, got)
		}
		if comp[i] != -1 {
			reps[comp[i]] = true
			if votes[comp[i]] > maxVotes {
				maxVotes = votes[comp[i]]
			}
		}
	}
	for l := 0; l < o.g.M(); l++ {
		if got := s.LinkUp(l); got != o.linkUp[l] {
			t.Fatalf("step %d: LinkUp(%d) = %v", step, l, got)
		}
	}
	if got := s.NumComponents(); got != len(reps) {
		t.Fatalf("step %d: NumComponents = %d, oracle %d", step, got, len(reps))
	}
	if got := s.MaxComponentVotes(); got != maxVotes {
		t.Fatalf("step %d: MaxComponentVotes = %d, oracle %d", step, got, maxVotes)
	}
	var wantReps, gotReps []int
	for r := range reps {
		wantReps = append(wantReps, r)
	}
	sort.Ints(wantReps)
	gotReps = s.Representatives(nil)
	sort.Ints(gotReps)
	if len(gotReps) != len(wantReps) {
		t.Fatalf("step %d: representatives %v, oracle %v", step, gotReps, wantReps)
	}
	for i := range gotReps {
		if gotReps[i] != wantReps[i] {
			t.Fatalf("step %d: representatives %v, oracle %v", step, gotReps, wantReps)
		}
	}
	// SameComponent spot checks across all pairs on these small graphs.
	for i := 0; i < o.g.N(); i++ {
		for j := 0; j < o.g.N(); j++ {
			want := comp[i] != -1 && comp[i] == comp[j]
			if got := s.SameComponent(i, j); got != want {
				t.Fatalf("step %d: SameComponent(%d,%d) = %v, oracle %v", step, i, j, got, want)
			}
		}
	}
}

// TestStateRandomFlapsAgainstOracle drives seeded random site/link flaps —
// plus occasional bulk resets — through the incremental component
// maintenance and checks every query against the brute-force BFS oracle
// after each step.
func TestStateRandomFlapsAgainstOracle(t *testing.T) {
	weighted := func(n int) []int {
		v := make([]int, n)
		for i := range v {
			v[i] = 1 + i%3 // non-uniform votes: 1,2,3,1,2,3,...
		}
		return v
	}
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"ring9", Ring(9)},
		{"complete6", Complete(6)},
		{"star8", Star(8)},
		{"path7", Path(7)},
		{"grid3x4", Grid(3, 4)},
	}
	for _, tc := range graphs {
		for _, votesName := range []string{"uniform", "weighted"} {
			tc, votesName := tc, votesName
			t.Run(tc.name+"/"+votesName, func(t *testing.T) {
				t.Parallel()
				var votes []int
				if votesName == "weighted" {
					votes = weighted(tc.g.N())
				}
				s := NewState(tc.g, votes)
				o := newOracle(tc.g, votes)
				src := rng.New(0xface ^ uint64(tc.g.N()<<8+tc.g.M()))
				o.check(t, s, -1)
				for step := 0; step < 1500; step++ {
					switch op := src.Intn(100); {
					case op < 30:
						i := src.Intn(tc.g.N())
						s.FailSite(i)
						o.siteUp[i] = false
					case op < 55:
						i := src.Intn(tc.g.N())
						s.RepairSite(i)
						o.siteUp[i] = true
					case op < 75:
						l := src.Intn(tc.g.M())
						s.FailLink(l)
						o.linkUp[l] = false
					case op < 95:
						l := src.Intn(tc.g.M())
						s.RepairLink(l)
						o.linkUp[l] = true
					case op < 97:
						s.Recompute() // must be idempotent on a consistent state
					default:
						up := src.Intn(2) == 0
						s.SetAll(up)
						for i := range o.siteUp {
							o.siteUp[i] = up
						}
						for l := range o.linkUp {
							o.linkUp[l] = up
						}
					}
					o.check(t, s, step)
				}
			})
		}
	}
}

// TestStateFlapNoops verifies that re-failing a down element and
// re-repairing an up element leave the structure untouched.
func TestStateFlapNoops(t *testing.T) {
	g := Ring(6)
	s := NewState(g, nil)
	s.FailSite(2)
	s.FailLink(4)
	before := snapshotComp(s)
	s.FailSite(2) // already down
	s.FailLink(4) // already down
	s.RepairSite(0)
	s.RepairLink(0) // already up
	if got := snapshotComp(s); !equalInts(got, before) {
		t.Fatalf("no-op flaps changed components: %v -> %v", before, got)
	}
}

// TestStateCloneReplay verifies clones evolve independently and answer
// like a fresh State with the same flap history.
func TestStateCloneReplay(t *testing.T) {
	g := Ring(8)
	s := NewState(g, nil)
	s.FailSite(3)
	c := s.Clone()
	c.FailSite(5)
	c.FailLink(0)
	if !s.SiteUp(5) || s.ComponentOf(5) == -1 {
		t.Fatalf("mutating the clone leaked into the original")
	}
	if c.SiteUp(5) {
		t.Fatalf("clone did not record its own failure")
	}
	// The clone must answer like a fresh State with the same flap history.
	fresh := NewState(g, nil)
	fresh.FailSite(3)
	fresh.FailSite(5)
	fresh.FailLink(0)
	if !equalInts(snapshotComp(c), snapshotComp(fresh)) {
		t.Fatalf("clone components %v, fresh replay %v", snapshotComp(c), snapshotComp(fresh))
	}
}

// TestStateDownVotesZero pins the paper's convention: a down site is a
// component of size and vote count zero.
func TestStateDownVotesZero(t *testing.T) {
	g := Complete(4)
	s := NewState(g, []int{5, 1, 1, 1})
	if s.VotesAt(0) != 8 || s.TotalVotes() != 8 {
		t.Fatalf("initial votes wrong: at0=%d total=%d", s.VotesAt(0), s.TotalVotes())
	}
	s.FailSite(0)
	if s.VotesAt(0) != 0 || s.SizeAt(0) != 0 || s.ComponentOf(0) != -1 {
		t.Fatalf("down site not a zero component")
	}
	// Total votes counts the full system regardless of status.
	if s.TotalVotes() != 8 {
		t.Fatalf("TotalVotes changed with status: %d", s.TotalVotes())
	}
	if s.VotesAt(1) != 3 {
		t.Fatalf("survivors' component votes = %d, want 3", s.VotesAt(1))
	}
}

func snapshotComp(s *State) []int {
	out := make([]int, s.Graph().N())
	for i := range out {
		out[i] = s.ComponentOf(i)
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStateGroupedFlapsAgainstOracle drives correlated regional failures —
// whole groups of sites killed and repaired as units, the shape the
// shared-shock (Marshall–Olkin) churn process produces — through the
// incremental component maintenance, interleaved with link flaps and
// partial single-site repairs, checking every query against the
// brute-force BFS oracle after each step. Group transitions compose many
// simultaneous element changes, a pattern independent single-element
// flapping rarely reaches.
func TestStateGroupedFlapsAgainstOracle(t *testing.T) {
	carve := func(n, k int) [][]int {
		regions := make([][]int, k)
		for i := 0; i < n; i++ {
			regions[i*k/n] = append(regions[i*k/n], i)
		}
		return regions
	}
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"ring9", Ring(9)},
		{"complete6", Complete(6)},
		{"grid3x4", Grid(3, 4)},
		{"star8", Star(8)},
	}
	for _, tc := range graphs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			regions := carve(tc.g.N(), 3)
			s := NewState(tc.g, nil)
			o := newOracle(tc.g, nil)
			src := rng.New(0x5a0c ^ uint64(tc.g.N()<<8+tc.g.M()))
			o.check(t, s, -1)
			for step := 0; step < 1500; step++ {
				switch op := src.Intn(100); {
				case op < 30: // regional shock: the whole group dies at once
					for _, i := range regions[src.Intn(len(regions))] {
						s.FailSite(i)
						o.siteUp[i] = false
					}
				case op < 60: // shock lifts: the whole group returns at once
					for _, i := range regions[src.Intn(len(regions))] {
						s.RepairSite(i)
						o.siteUp[i] = true
					}
				case op < 72: // partial healing inside a dead region
					i := src.Intn(tc.g.N())
					s.RepairSite(i)
					o.siteUp[i] = true
				case op < 86:
					l := src.Intn(tc.g.M())
					s.FailLink(l)
					o.linkUp[l] = false
				default:
					l := src.Intn(tc.g.M())
					s.RepairLink(l)
					o.linkUp[l] = true
				}
				o.check(t, s, step)
			}
		})
	}
}
