package dist

import (
	"math"
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/rng"
)

func TestPMFValidateMean(t *testing.T) {
	p := PMF{0.1, 0.2, 0.3, 0.4}
	if err := p.Validate(1e-12); err != nil {
		t.Fatal(err)
	}
}

// TestBinom checks the binomial coefficient the closed forms use, in the
// log domain they use it in.
func TestBinom(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{{5, 2, 10}, {10, 0, 1}, {10, 10, 1}, {52, 5, 2598960}, {4, 7, 0}, {4, -1, 0}}
	for _, c := range cases {
		if got := math.Exp(LogBinom(c.n, c.k)); math.Abs(got-c.want) > 1e-6*math.Max(1, c.want) {
			t.Fatalf("exp LogBinom(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
	// Large coefficient sanity: C(100,50) ≈ 1.0089e29.
	if got := math.Exp(LogBinom(100, 50)); math.Abs(got-1.00891344545564e29)/1e29 > 1e-9 {
		t.Fatalf("exp LogBinom(100,50) = %g", got)
	}
}

func TestPMFValidateErrors(t *testing.T) {
	if err := (PMF{0.5, 0.4}).Validate(1e-9); err == nil {
		t.Fatal("sum 0.9 should fail")
	}
	if err := (PMF{1.2, -0.2}).Validate(1e-9); err == nil {
		t.Fatal("negative mass should fail")
	}
}

func TestNormalizeAndClone(t *testing.T) {
	p := PMF{2, 2, 4}
	p.Normalize()
	if err := p.Validate(1e-12); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[2]-0.5) > 1e-12 {
		t.Fatalf("normalized %v", p)
	}
	zero := PMF{0, 0}
	zero.Normalize() // must not divide by zero
	if zero[0] != 0 {
		t.Fatal("zero normalize changed values")
	}
}

func TestMixtureUniform(t *testing.T) {
	a := PMF{1, 0}
	b := PMF{0, 1}
	m := Mixture([]float64{0.25, 0.75}, []PMF{a, b})
	if math.Abs(m[0]-0.25) > 1e-12 || math.Abs(m[1]-0.75) > 1e-12 {
		t.Fatalf("mixture %v", m)
	}
	w := Uniform(4)
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("Uniform(4) sums to %g", sum)
	}
}

func TestMixturePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	Mixture([]float64{1}, []PMF{{1}, {1}})
}

func TestRelBoundaryCases(t *testing.T) {
	rel := Rel(10, 1)
	for i, v := range rel {
		if v != 1 {
			t.Fatalf("Rel(%d, 1) = %g, want 1", i, v)
		}
	}
	rel = Rel(10, 0)
	if rel[0] != 1 || rel[1] != 1 {
		t.Fatal("Rel(0/1, 0) should be 1")
	}
	for i := 2; i <= 10; i++ {
		if rel[i] != 0 {
			t.Fatalf("Rel(%d, 0) = %g, want 0", i, rel[i])
		}
	}
}

func TestRelTwoAndThree(t *testing.T) {
	// Rel(2,r) = r exactly; Rel(3,r) = 1 - (1-r)^2·1·... via formula:
	// Rel(3) = 1 - [C(2,0)(1-r)^2 Rel(1) + C(2,1)(1-r)^2 Rel(2)]
	//        = 1 - (1-r)^2 - 2(1-r)^2 r = 3r^2 - 2r^3.
	for _, r := range []float64{0.1, 0.5, 0.9, 0.96} {
		rel := Rel(3, r)
		if math.Abs(rel[2]-r) > 1e-12 {
			t.Fatalf("Rel(2,%g) = %g, want %g", r, rel[2], r)
		}
		want := 3*r*r - 2*r*r*r
		if math.Abs(rel[3]-want) > 1e-12 {
			t.Fatalf("Rel(3,%g) = %g, want %g", r, rel[3], want)
		}
	}
}

func TestRelInRangeAndMonotone(t *testing.T) {
	prev := make([]float64, 21)
	for _, r := range []float64{0, 0.2, 0.4, 0.6, 0.8, 0.96, 1} {
		rel := Rel(20, r)
		for i, v := range rel {
			if v < 0 || v > 1 {
				t.Fatalf("Rel(%d,%g) = %g out of [0,1]", i, r, v)
			}
			if v+1e-9 < prev[i] {
				t.Fatalf("Rel(%d,·) not monotone in r: %g then %g", i, prev[i], v)
			}
		}
		copy(prev, rel)
	}
}

func TestRelMonteCarlo(t *testing.T) {
	// Estimate Rel(5, 0.5) by sampling random subgraphs of K5.
	const n, r = 5, 0.5
	src := rng.New(2024)
	g := graph.Complete(n)
	st := graph.NewState(g, nil)
	const samples = 200000
	connected := 0
	for s := 0; s < samples; s++ {
		for l := 0; l < g.M(); l++ {
			if src.Bernoulli(r) {
				st.RepairLink(l)
			} else {
				st.FailLink(l)
			}
		}
		if st.NumComponents() == 1 {
			connected++
		}
	}
	got := Rel(n, r)[n]
	mc := float64(connected) / samples
	if math.Abs(got-mc) > 0.005 {
		t.Fatalf("Rel(5,0.5) = %g, Monte Carlo %g", got, mc)
	}
}

func TestRingSumsToOne(t *testing.T) {
	for _, n := range []int{3, 5, 20, 101} {
		for _, p := range []float64{0.5, 0.9, 0.96, 1} {
			for _, r := range []float64{0.5, 0.9, 0.96, 1} {
				f := Ring(n, p, r)
				if err := f.Validate(1e-9); err != nil {
					t.Fatalf("Ring(%d,%g,%g): %v", n, p, r, err)
				}
			}
		}
	}
}

func TestRingPerfectComponents(t *testing.T) {
	f := Ring(7, 1, 1)
	for v := 0; v < 7; v++ {
		if f[v] != 0 {
			t.Fatalf("perfect ring has mass %g at v=%d", f[v], v)
		}
	}
	if math.Abs(f[7]-1) > 1e-12 {
		t.Fatalf("perfect ring f(n) = %g", f[7])
	}
}

func TestRingMatchesMonteCarlo(t *testing.T) {
	const n, p, r = 7, 0.9, 0.8
	f := Ring(n, p, r)
	src := rng.New(555)
	mc := MonteCarlo(graph.Ring(n), nil, p, r, 200000, src)
	// Every site is symmetric; compare site 0's estimate.
	for v := 0; v <= n; v++ {
		if math.Abs(f[v]-mc[0][v]) > 0.005 {
			t.Fatalf("Ring analytic f(%d)=%g vs MC %g", v, f[v], mc[0][v])
		}
	}
}

func TestCompleteSumsToOne(t *testing.T) {
	for _, n := range []int{1, 2, 5, 20, 101} {
		for _, p := range []float64{0.5, 0.96, 1} {
			for _, r := range []float64{0.5, 0.96, 1} {
				f := Complete(n, p, r)
				if err := f.Validate(1e-9); err != nil {
					t.Fatalf("Complete(%d,%g,%g): %v", n, p, r, err)
				}
			}
		}
	}
}

func TestCompletePerfectLinksIsBinomial(t *testing.T) {
	// With r = 1 all up sites form one component, so the component size seen
	// by an up site is 1 + Binomial(n-1, p).
	const n, p = 9, 0.7
	f := Complete(n, p, 1)
	for v := 1; v <= n; v++ {
		want := p * math.Exp(LogBinom(n-1, v-1)+float64(v-1)*math.Log(p)+float64(n-v)*math.Log(1-p))
		if math.Abs(f[v]-want) > 1e-12 {
			t.Fatalf("Complete r=1: f(%d)=%g, want %g", v, f[v], want)
		}
	}
}

func TestCompleteMatchesMonteCarlo(t *testing.T) {
	const n, p, r = 6, 0.85, 0.7
	f := Complete(n, p, r)
	src := rng.New(777)
	mc := MonteCarlo(graph.Complete(n), nil, p, r, 200000, src)
	for v := 0; v <= n; v++ {
		if math.Abs(f[v]-mc[0][v]) > 0.006 {
			t.Fatalf("Complete analytic f(%d)=%g vs MC %g", v, f[v], mc[0][v])
		}
	}
}

func TestBusDensities(t *testing.T) {
	const n, p, r = 8, 0.9, 0.95
	a := BusKillsSites(n, p, r)
	b := BusIndependentSites(n, p, r)
	if err := a.Validate(1e-9); err != nil {
		t.Fatalf("BusKillsSites: %v", err)
	}
	if err := b.Validate(1e-9); err != nil {
		t.Fatalf("BusIndependentSites: %v", err)
	}
	// Variant B moves the bus-down mass from v=0 to v=1.
	if !(b[1] > a[1]) {
		t.Fatalf("independent-sites bus should have more mass at v=1: %g vs %g", b[1], a[1])
	}
	if !(a[0] > b[0]) {
		t.Fatalf("kills-sites bus should have more mass at v=0: %g vs %g", a[0], b[0])
	}
}

func TestBusMatchesDirectSimulation(t *testing.T) {
	const n, p, r = 6, 0.8, 0.9
	src := rng.New(31337)
	const samples = 300000
	histA := make(PMF, n+1)
	histB := make(PMF, n+1)
	for s := 0; s < samples; s++ {
		busUp := src.Bernoulli(r)
		up := 0
		site0 := src.Bernoulli(p)
		if site0 {
			up++
		}
		for i := 1; i < n; i++ {
			if src.Bernoulli(p) {
				up++
			}
		}
		// Variant A: bus down (or site 0 down) → component 0.
		if busUp && site0 {
			histA[up]++
		} else {
			histA[0]++
		}
		// Variant B: site 0 down → 0; bus down but site 0 up → singleton.
		switch {
		case !site0:
			histB[0]++
		case !busUp:
			histB[1]++
		default:
			histB[up]++
		}
	}
	histA.Normalize()
	histB.Normalize()
	a := BusKillsSites(n, p, r)
	b := BusIndependentSites(n, p, r)
	for v := 0; v <= n; v++ {
		if math.Abs(a[v]-histA[v]) > 0.005 {
			t.Fatalf("BusKillsSites f(%d)=%g vs sim %g", v, a[v], histA[v])
		}
		if math.Abs(b[v]-histB[v]) > 0.005 {
			t.Fatalf("BusIndependentSites f(%d)=%g vs sim %g", v, b[v], histB[v])
		}
	}
}

func TestMonteCarloWeightedVotes(t *testing.T) {
	// Two sites joined by a link; site 0 has 3 votes, site 1 has 1.
	g := graph.NewGraph(2)
	g.AddEdge(0, 1)
	src := rng.New(42)
	const p, r = 0.9, 0.5
	mc := MonteCarlo(g, []int{3, 1}, p, r, 200000, src)
	// Site 0: down → 0; up alone (site1 down or link down) → 3; together → 4.
	want0 := PMF{1 - p, 0, 0, p * (1 - p*r), p * p * r}
	for v := range want0 {
		if math.Abs(mc[0][v]-want0[v]) > 0.005 {
			t.Fatalf("weighted MC f_0(%d)=%g, want %g", v, mc[0][v], want0[v])
		}
	}
}

func BenchmarkRel101(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Rel(101, 0.96)
	}
}

func BenchmarkComplete101(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Complete(101, 0.96, 0.96)
	}
}

func BenchmarkRing101(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Ring(101, 0.96, 0.96)
	}
}
