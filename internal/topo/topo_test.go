package topo

import (
	"testing"

	"quorumkit/internal/graph"
)

func TestMaxChords(t *testing.T) {
	if got := MaxChords(101); got != 4949 {
		t.Fatalf("MaxChords(101) = %d", got)
	}
	if got := MaxChords(5); got != 5 {
		t.Fatalf("MaxChords(5) = %d", got)
	}
}

func TestPaperTopologies(t *testing.T) {
	for _, i := range ChordCounts {
		g := Paper(i)
		if g.N() != Sites {
			t.Fatalf("topology %d: %d sites", i, g.N())
		}
		if g.M() != Sites+i {
			t.Fatalf("topology %d: %d links, want %d", i, g.M(), Sites+i)
		}
	}
}

func TestFullyConnectedIsComplete(t *testing.T) {
	g := Paper(4949)
	if g.M() != 5050 {
		t.Fatalf("links %d, want 5050", g.M())
	}
	for u := 0; u < Sites; u++ {
		for v := u + 1; v < Sites; v++ {
			if !g.HasEdge(u, v) {
				t.Fatalf("missing edge %d-%d", u, v)
			}
		}
	}
}

func TestPaperRejectsUnknownCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Paper(3)
}

func TestChordsAreValid(t *testing.T) {
	for _, count := range []int{0, 1, 2, 4, 16, 256, 1000} {
		cs := Chords(101, count)
		if len(cs) != count {
			t.Fatalf("count %d: got %d chords", count, len(cs))
		}
		seen := map[[2]int]bool{}
		for _, c := range cs {
			u, v := c[0], c[1]
			if u < 0 || v >= 101 || u >= v {
				t.Fatalf("bad chord %v", c)
			}
			d := v - u
			if d > 101-d {
				d = 101 - d
			}
			if d < 2 {
				t.Fatalf("chord %v duplicates a ring link", c)
			}
			if seen[c] {
				t.Fatalf("duplicate chord %v", c)
			}
			seen[c] = true
		}
	}
}

func TestChordsDeterministic(t *testing.T) {
	a := Chords(101, 256)
	b := Chords(101, 256)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chord enumeration is not deterministic at %d", i)
		}
	}
	// Prefix property: the 16-chord topology is a prefix of the 256-chord
	// one, so adding links only ever adds connectivity.
	p := Chords(101, 16)
	for i := range p {
		if p[i] != a[i] {
			t.Fatalf("prefix property violated at %d", i)
		}
	}
}

func TestChordsSpread(t *testing.T) {
	// The first chords should be long (diametric) and the starting points
	// spread: with 4 chords no two should share an endpoint.
	cs := Chords(101, 4)
	used := map[int]int{}
	for _, c := range cs {
		used[c[0]]++
		used[c[1]]++
		d := c[1] - c[0]
		if d > 101-d {
			d = 101 - d
		}
		if d != 50 {
			t.Fatalf("early chord %v has distance %d, want 50", c, d)
		}
	}
	for site, n := range used {
		if n > 1 {
			t.Fatalf("site %d used by %d of the first 4 chords", site, n)
		}
	}
}

func TestChordsEvenN(t *testing.T) {
	// Even n: diametric chords are only n/2 distinct; the enumeration must
	// not emit duplicates and must still reach MaxChords.
	n := 10
	all := Chords(n, MaxChords(n))
	seen := map[[2]int]bool{}
	for _, c := range all {
		if seen[c] {
			t.Fatalf("duplicate %v", c)
		}
		seen[c] = true
	}
	if len(all) != MaxChords(n) {
		t.Fatalf("got %d chords, want %d", len(all), MaxChords(n))
	}
	g := Build(n, MaxChords(n))
	if g.M() != n*(n-1)/2 {
		t.Fatalf("even-n full build has %d links", g.M())
	}
}

func TestName(t *testing.T) {
	if Name(0) != "Topology 0 (ring)" {
		t.Fatalf("Name(0) = %q", Name(0))
	}
	if Name(16) != "Topology 16" {
		t.Fatalf("Name(16) = %q", Name(16))
	}
	if Name(4949) != "Topology 4949 (fully connected)" {
		t.Fatalf("Name(4949) = %q", Name(4949))
	}
}

func TestClusters(t *testing.T) {
	g := Clusters(4, 5)
	if g.N() != 20 {
		t.Fatalf("sites %d", g.N())
	}
	// 4 clusters × C(5,2)=10 internal links + 4 WAN links.
	if g.M() != 44 {
		t.Fatalf("links %d", g.M())
	}
	// Intra-cluster completeness.
	if !g.HasEdge(5, 9) || g.HasEdge(4, 5) {
		t.Fatal("cluster boundaries wrong")
	}
	// The WAN ring: no single link is a bridge.
	st := graph.NewState(g, nil)
	for l := 0; l < g.M(); l++ {
		st.FailLink(l)
		if st.NumComponents() != 1 {
			t.Fatalf("link %d is a bridge of the cluster ring", l)
		}
		st.RepairLink(l)
	}
}

func TestClustersTwoByOne(t *testing.T) {
	g := Clusters(2, 1)
	if g.N() != 2 || g.M() != 1 {
		t.Fatalf("%d/%d", g.N(), g.M())
	}
}

func TestClustersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Clusters(1, 5)
}

func BenchmarkBuildTopology256(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Paper(256)
	}
}
