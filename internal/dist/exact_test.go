package dist

import (
	"math"
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/rng"
)

func TestExactMatchesRingClosedForm(t *testing.T) {
	const n, p, r = 6, 0.9, 0.8
	want := Ring(n, p, r)
	got := Exact(graph.Ring(n), nil, p, r)
	for i := 0; i < n; i++ {
		for v := 0; v <= n; v++ {
			if math.Abs(got[i][v]-want[v]) > 1e-9 {
				t.Fatalf("site %d: f(%d) = %.12f, closed form %.12f", i, v, got[i][v], want[v])
			}
		}
	}
}

func TestExactMatchesCompleteClosedForm(t *testing.T) {
	const n, p, r = 5, 0.85, 0.7
	want := Complete(n, p, r)
	got := Exact(graph.Complete(n), nil, p, r)
	for v := 0; v <= n; v++ {
		if math.Abs(got[0][v]-want[v]) > 1e-9 {
			t.Fatalf("f(%d) = %.12f, closed form %.12f", v, got[0][v], want[v])
		}
	}
}

func TestExactSumsToOne(t *testing.T) {
	g := graph.Grid(2, 3)
	fs := Exact(g, nil, 0.9, 0.9)
	for i, f := range fs {
		if err := f.Validate(1e-9); err != nil {
			t.Fatalf("site %d: %v", i, err)
		}
	}
}

func TestExactAsymmetricSites(t *testing.T) {
	// On a path the end sites have different densities from the middle.
	g := graph.Path(3)
	fs := Exact(g, nil, 0.9, 0.5)
	// Isolation probabilities differ: the middle site must lose both sides
	// (p·(1−pr)²), an end site only one (p·(1−pr)).
	if math.Abs(fs[0][1]-fs[1][1]) < 1e-12 {
		t.Fatal("end and middle isolation probabilities should differ on a path")
	}
	wantMid1 := 0.9 * (1 - 0.9*0.5) * (1 - 0.9*0.5)
	if math.Abs(fs[1][1]-wantMid1) > 1e-12 {
		t.Fatalf("middle f(1) = %g, want %g", fs[1][1], wantMid1)
	}
	// Middle site is in the full component iff all sites up and both links
	// up: p^3·r^2.
	want := 0.9 * 0.9 * 0.9 * 0.5 * 0.5
	if math.Abs(fs[1][3]-want) > 1e-12 {
		t.Fatalf("middle f(3) = %g, want %g", fs[1][3], want)
	}
	// End site 0: full component same probability.
	if math.Abs(fs[0][3]-want) > 1e-12 {
		t.Fatalf("end f(3) = %g, want %g", fs[0][3], want)
	}
	// End site alone: down-link or down-neighbor... f_0(1) = p·(1−pr)
	want1 := 0.9 * (1 - 0.9*0.5)
	if math.Abs(fs[0][1]-want1) > 1e-12 {
		t.Fatalf("end f(1) = %g, want %g", fs[0][1], want1)
	}
}

func TestExactWeightedVotes(t *testing.T) {
	g := graph.Path(2)
	fs := Exact(g, []int{3, 1}, 0.5, 0.5)
	// Site 0 with 3 votes: alone → 3 votes; with site 1 → 4.
	if err := fs[0].Validate(1e-12); err != nil {
		t.Fatal(err)
	}
	if fs[0][2] != 0 {
		t.Fatal("no configuration yields 2 votes for site 0")
	}
	wantAlone := 0.5 * (1 - 0.25) // p·(1 − p·r)
	if math.Abs(fs[0][3]-wantAlone) > 1e-12 {
		t.Fatalf("f_0(3) = %g, want %g", fs[0][3], wantAlone)
	}
}

func TestExactMatchesMonteCarlo(t *testing.T) {
	g := graph.Grid(2, 2)
	const p, r = 0.8, 0.7
	exact := Exact(g, nil, p, r)
	mc := MonteCarlo(g, nil, p, r, 200000, rng.New(5))
	for i := 0; i < g.N(); i++ {
		for v := 0; v <= 4; v++ {
			if math.Abs(exact[i][v]-mc[i][v]) > 0.006 {
				t.Fatalf("site %d f(%d): exact %g vs MC %g", i, v, exact[i][v], mc[i][v])
			}
		}
	}
}

func TestExactLimitEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized enumeration should panic")
		}
	}()
	Exact(graph.Complete(8), nil, 0.9, 0.9) // 8 + 28 bits > 24
}

func BenchmarkExactGrid2x3(b *testing.B) {
	g := graph.Grid(2, 3)
	for i := 0; i < b.N; i++ {
		_ = Exact(g, nil, 0.9, 0.9)
	}
}
