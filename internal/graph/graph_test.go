package graph

import (
	"testing"

	"quorumkit/internal/rng"
)

func TestBuilders(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"ring5", Ring(5), 5, 5},
		{"complete6", Complete(6), 6, 15},
		{"star7", Star(7), 7, 6},
		{"path4", Path(4), 4, 3},
		{"grid3x4", Grid(3, 4), 12, 17},
	}
	for _, c := range cases {
		if c.g.N() != c.n || c.g.M() != c.m {
			t.Fatalf("%s: got (%d,%d), want (%d,%d)", c.name, c.g.N(), c.g.M(), c.n, c.m)
		}
	}
}

func TestRingStructure(t *testing.T) {
	g := Ring(6)
	for i := 0; i < 6; i++ {
		if g.Degree(i) != 2 {
			t.Fatalf("site %d degree %d", i, g.Degree(i))
		}
		if !g.HasEdge(i, (i+1)%6) {
			t.Fatalf("missing ring edge %d-%d", i, (i+1)%6)
		}
	}
	if g.HasEdge(0, 3) {
		t.Fatal("unexpected chord in ring")
	}
}

func TestEdgeIndexSymmetric(t *testing.T) {
	g := NewGraph(4)
	idx := g.AddEdge(1, 3)
	if g.EdgeIndex(1, 3) != idx || g.EdgeIndex(3, 1) != idx {
		t.Fatal("EdgeIndex not symmetric")
	}
	if g.EdgeIndex(0, 2) != -1 {
		t.Fatal("EdgeIndex of absent edge should be -1")
	}
	e := g.edges[idx]
	if e.U != 1 || e.V != 3 {
		t.Fatalf("edge %d = %+v", idx, e)
	}
}

func TestAddEdgePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"self-loop":  func() { NewGraph(3).AddEdge(1, 1) },
		"range":      func() { NewGraph(3).AddEdge(0, 3) },
		"duplicate":  func() { g := NewGraph(3); g.AddEdge(0, 1); g.AddEdge(1, 0) },
		"zero-sites": func() { NewGraph(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestStateAllUp(t *testing.T) {
	g := Ring(5)
	s := NewState(g, nil)
	if s.TotalVotes() != 5 {
		t.Fatalf("total votes %d", s.TotalVotes())
	}
	if s.NumComponents() != 1 {
		t.Fatalf("components %d", s.NumComponents())
	}
	for i := 0; i < 5; i++ {
		if s.VotesAt(i) != 5 || s.SizeAt(i) != 5 || s.ComponentOf(i) != 0 {
			t.Fatalf("site %d: votes=%d size=%d comp=%d", i, s.VotesAt(i), s.SizeAt(i), s.ComponentOf(i))
		}
	}
}

func TestStateWeightedVotes(t *testing.T) {
	g := Path(3)
	s := NewState(g, []int{5, 1, 2})
	if s.TotalVotes() != 8 || s.VotesAt(2) != 8 {
		t.Fatalf("weighted votes: total=%d at2=%d", s.TotalVotes(), s.VotesAt(2))
	}
	s.FailSite(1)
	if s.VotesAt(0) != 5 || s.VotesAt(2) != 2 || s.VotesAt(1) != 0 {
		t.Fatalf("after split: %d %d %d", s.VotesAt(0), s.VotesAt(2), s.VotesAt(1))
	}
	if s.Votes(0) != 5 {
		t.Fatalf("Votes(0) = %d", s.Votes(0))
	}
}

func TestFailLinkBridge(t *testing.T) {
	g := Path(4) // 0-1-2-3; every link is a bridge
	s := NewState(g, nil)
	l := g.EdgeIndex(1, 2)
	s.FailLink(l)
	if s.NumComponents() != 2 {
		t.Fatalf("components %d", s.NumComponents())
	}
	if s.SameComponent(1, 2) || !s.SameComponent(0, 1) || !s.SameComponent(2, 3) {
		t.Fatal("wrong split")
	}
	s.RepairLink(l)
	if s.NumComponents() != 1 || !s.SameComponent(0, 3) {
		t.Fatal("repair did not merge")
	}
}

func TestFailLinkNonBridge(t *testing.T) {
	g := Ring(5) // no single link disconnects a ring
	s := NewState(g, nil)
	s.FailLink(0)
	if s.NumComponents() != 1 || s.VotesAt(0) != 5 {
		t.Fatal("ring should survive one link failure")
	}
	s.FailLink(2)
	if s.NumComponents() != 2 {
		t.Fatalf("two ring link failures should split; got %d components", s.NumComponents())
	}
}

func TestFailSiteSplitsStar(t *testing.T) {
	g := Star(5)
	s := NewState(g, nil)
	s.FailSite(0)
	if s.NumComponents() != 4 {
		t.Fatalf("hub failure should isolate leaves; components=%d", s.NumComponents())
	}
	for i := 1; i < 5; i++ {
		if s.VotesAt(i) != 1 {
			t.Fatalf("leaf %d votes %d", i, s.VotesAt(i))
		}
	}
	if s.VotesAt(0) != 0 || s.ComponentOf(0) != -1 {
		t.Fatal("down site should have no component")
	}
	s.RepairSite(0)
	if s.NumComponents() != 1 || s.VotesAt(3) != 5 {
		t.Fatal("hub repair should reunite")
	}
}

func TestIdempotentOps(t *testing.T) {
	g := Ring(4)
	s := NewState(g, nil)
	s.FailSite(1)
	s.FailSite(1)
	s.FailLink(0)
	s.FailLink(0)
	s.RepairSite(1)
	s.RepairSite(1)
	s.RepairLink(0)
	s.RepairLink(0)
	if s.NumComponents() != 1 || s.VotesAt(0) != 4 {
		t.Fatal("idempotent ops corrupted state")
	}
}

func TestMaxComponentVotes(t *testing.T) {
	g := Path(5)
	s := NewState(g, nil)
	if s.MaxComponentVotes() != 5 {
		t.Fatal("all-up max")
	}
	s.FailSite(1) // components {0}, {2,3,4}
	if s.MaxComponentVotes() != 3 {
		t.Fatalf("max votes %d", s.MaxComponentVotes())
	}
	for i := 0; i < 5; i++ {
		s.FailSite(i)
	}
	if s.MaxComponentVotes() != 0 {
		t.Fatal("all-down max should be 0")
	}
}

func TestMembersAndRepresentatives(t *testing.T) {
	g := Path(4)
	s := NewState(g, nil)
	s.FailLink(g.EdgeIndex(1, 2))
	reps := s.Representatives(nil)
	if len(reps) != 2 || reps[0] != 0 || reps[1] != 2 {
		t.Fatalf("reps %v", reps)
	}
	m := s.Members(2, nil)
	if len(m) != 2 || m[0] != 2 || m[1] != 3 {
		t.Fatalf("members %v", m)
	}
}

func TestSetAll(t *testing.T) {
	g := Ring(6)
	s := NewState(g, nil)
	s.SetAll(false)
	if s.NumComponents() != 0 || s.MaxComponentVotes() != 0 {
		t.Fatal("SetAll(false)")
	}
	s.SetAll(true)
	if s.NumComponents() != 1 || s.VotesAt(5) != 6 {
		t.Fatal("SetAll(true)")
	}
}

// cloneRecomputed builds a fresh State with the same up/down pattern and
// recomputes from scratch, providing ground truth.
func cloneRecomputed(s *State) *State {
	g := s.Graph()
	c := NewState(g, s.votes)
	for i := 0; i < g.N(); i++ {
		if !s.SiteUp(i) {
			c.siteUp[i] = false
		}
	}
	for l := 0; l < g.M(); l++ {
		if !s.LinkUp(l) {
			c.linkUp[l] = false
		}
	}
	c.Recompute()
	return c
}

func statesAgree(a, b *State) bool {
	n := a.Graph().N()
	for i := 0; i < n; i++ {
		if a.ComponentOf(i) != b.ComponentOf(i) {
			return false
		}
		if a.VotesAt(i) != b.VotesAt(i) || a.SizeAt(i) != b.SizeAt(i) {
			return false
		}
	}
	return true
}

// TestIncrementalMatchesRecompute drives random failure/repair sequences on
// several topologies and checks the incremental component maintenance
// against a from-scratch recomputation after every event.
func TestIncrementalMatchesRecompute(t *testing.T) {
	topologies := map[string]*Graph{
		"ring12":    Ring(12),
		"complete8": Complete(8),
		"star9":     Star(9),
		"grid4x4":   Grid(4, 4),
		"path7":     Path(7),
	}
	r := rng.New(12345)
	for name, g := range topologies {
		s := NewState(g, nil)
		for step := 0; step < 2000; step++ {
			switch r.Intn(4) {
			case 0:
				s.FailSite(r.Intn(g.N()))
			case 1:
				s.RepairSite(r.Intn(g.N()))
			case 2:
				s.FailLink(r.Intn(g.M()))
			case 3:
				s.RepairLink(r.Intn(g.M()))
			}
			if !statesAgree(s, cloneRecomputed(s)) {
				t.Fatalf("%s: incremental state diverged at step %d", name, step)
			}
		}
	}
}

// TestComponentInvariant checks structural invariants after random events:
// component votes sum to the votes of up sites, representatives are minimal
// members, and every up site has a valid representative.
func TestComponentInvariant(t *testing.T) {
	g := Grid(5, 5)
	s := NewState(g, nil)
	r := rng.New(99)
	for step := 0; step < 3000; step++ {
		switch r.Intn(4) {
		case 0:
			s.FailSite(r.Intn(g.N()))
		case 1:
			s.RepairSite(r.Intn(g.N()))
		case 2:
			s.FailLink(r.Intn(g.M()))
		case 3:
			s.RepairLink(r.Intn(g.M()))
		}
		upVotes := 0
		for i := 0; i < g.N(); i++ {
			if s.SiteUp(i) {
				upVotes += s.Votes(i)
				rep := s.ComponentOf(i)
				if rep < 0 || rep > i && s.ComponentOf(rep) != rep {
					t.Fatalf("step %d: site %d has bad rep %d", step, i, rep)
				}
				if rep > i {
					t.Fatalf("step %d: rep %d not minimal for site %d", step, rep, i)
				}
			} else if s.ComponentOf(i) != -1 {
				t.Fatalf("step %d: down site %d has component", step, i)
			}
		}
		sum := 0
		for _, rep := range s.Representatives(nil) {
			sum += s.VotesAt(rep)
		}
		if sum != upVotes {
			t.Fatalf("step %d: component votes %d != up votes %d", step, sum, upVotes)
		}
	}
}

func BenchmarkFailRepairRing101(b *testing.B) {
	g := Ring(101)
	s := NewState(g, nil)
	r := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := r.Intn(g.M())
		s.FailLink(l)
		s.RepairLink(l)
	}
}

func BenchmarkFailRepairComplete101(b *testing.B) {
	g := Complete(101)
	s := NewState(g, nil)
	r := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		site := r.Intn(g.N())
		s.FailSite(site)
		s.RepairSite(site)
	}
}

func TestStateClone(t *testing.T) {
	g := Ring(6)
	s := NewState(g, nil)
	s.FailSite(2)
	s.FailLink(0)
	c := s.Clone()
	if !statesAgree(s, c) {
		t.Fatal("clone differs from original")
	}
	// Divergence after cloning does not leak back.
	c.FailSite(4)
	if !s.SiteUp(4) {
		t.Fatal("clone mutation leaked into original")
	}
	s.RepairSite(2)
	if c.SiteUp(2) {
		t.Fatal("original mutation leaked into clone")
	}
}
