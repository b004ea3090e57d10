package core

import (
	"math"
	"testing"

	"quorumkit/internal/dist"
	"quorumkit/internal/rng"
)

func TestEstimatorConvergesToSampledDensity(t *testing.T) {
	const T = 10
	truth := dist.PMF{0.2, 0, 0, 0.1, 0, 0.3, 0, 0, 0, 0, 0.4}
	e := NewEstimator(1, T)
	src := rng.New(8)
	const n = 200000
	for i := 0; i < n; i++ {
		u := src.Float64()
		cum := 0.0
		v := 0
		for k, p := range truth {
			cum += p
			if u < cum {
				v = k
				break
			}
		}
		e.Observe(0, v)
	}
	got := e.Density(0)
	for v := range truth {
		if math.Abs(got[v]-truth[v]) > 0.005 {
			t.Fatalf("f(%d) = %g, want %g", v, got[v], truth[v])
		}
	}
	if e.Weight(0) != n {
		t.Fatalf("weight %g", e.Weight(0))
	}
	if len(e.totals) != 1 || e.t != T {
		t.Fatalf("N=%d T=%d", len(e.totals), e.t)
	}
}

func TestEstimatorTimeWeightedMatchesCounts(t *testing.T) {
	// Recording v for duration d must equal recording it d times (up to
	// normalization).
	a := NewEstimator(1, 5)
	b := NewEstimator(1, 5)
	a.ObserveFor(0, 3, 4)
	a.ObserveFor(0, 5, 6)
	for i := 0; i < 4; i++ {
		b.Observe(0, 3)
	}
	for i := 0; i < 6; i++ {
		b.Observe(0, 5)
	}
	fa, fb := a.Density(0), b.Density(0)
	for v := range fa {
		if math.Abs(fa[v]-fb[v]) > 1e-12 {
			t.Fatalf("v=%d: %g vs %g", v, fa[v], fb[v])
		}
	}
}

func TestEstimatorDecayTracksChange(t *testing.T) {
	// Phase 1: always 2 votes. Phase 2: always 8. With decay, the estimate
	// must swing to phase 2; without decay it stays mixed.
	mk := func(decay float64) dist.PMF {
		e := NewEstimator(1, 10)
		e.SetDecay(decay)
		for i := 0; i < 1000; i++ {
			e.Age()
			e.Observe(0, 2)
		}
		for i := 0; i < 1000; i++ {
			e.Age()
			e.Observe(0, 8)
		}
		return e.Density(0)
	}
	decayed := mk(0.99)
	flat := mk(1)
	if decayed[8] < 0.99 {
		t.Fatalf("decayed estimator stuck in the past: f(8)=%g", decayed[8])
	}
	if math.Abs(flat[8]-0.5) > 1e-9 {
		t.Fatalf("undecayed estimator should be an even mix: f(8)=%g", flat[8])
	}
}

func TestEstimatorDecayValidation(t *testing.T) {
	e := NewEstimator(1, 3)
	for _, bad := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("decay %g should panic", bad)
				}
			}()
			e.SetDecay(bad)
		}()
	}
}

func TestEstimatorModelConservativeWhenEmpty(t *testing.T) {
	e := NewEstimator(2, 4)
	e.Observe(0, 4)
	m, err := e.Model(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Site 1 has no data → point mass at 0 → contributes nothing to tails.
	if got := m.ReadAvail(1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("R(1) = %g, want 0.5", got)
	}
}

// TestOperationalDensityPreservesArgmax verifies the paper's footnote 4:
// sites cannot observe their own down time, so an estimator fed only by
// accesses at up sites measures the operational density f'; the
// unconditional density is p·f' plus mass 1−p at zero, so A = p·A' and
// q_r maximizes A(α,·) iff it maximizes A'(α,·).
func TestOperationalDensityPreservesArgmax(t *testing.T) {
	const T = 21
	const p = 0.85
	src := rng.New(77)
	for trial := 0; trial < 50; trial++ {
		// Random conditional density over v ≥ 1 (an up site always counts
		// its own votes).
		e := NewEstimator(1, T)
		for i := 0; i < 5000; i++ {
			e.Observe(0, 1+src.Intn(T))
		}
		fPrime := e.Density(0) // estimate of f'
		fFull := make(dist.PMF, len(fPrime))
		for v := 1; v < len(fFull); v++ {
			fFull[v] = p * fPrime[v]
		}
		fFull[0] = 1 - p
		if err := fFull.Validate(1e-9); err != nil {
			t.Fatal(err)
		}
		mPrime, err := ModelFromSingleDensity(fPrime)
		if err != nil {
			t.Fatal(err)
		}
		mFull, err := ModelFromSingleDensity(fFull)
		if err != nil {
			t.Fatal(err)
		}
		for _, alpha := range []float64{0, 0.3, 0.75, 1} {
			rp := mPrime.Optimize(alpha)
			rf := mFull.Optimize(alpha)
			if rp.Assignment.QR != rf.Assignment.QR {
				t.Fatalf("trial %d α=%g: argmax differs: %d vs %d",
					trial, alpha, rp.Assignment.QR, rf.Assignment.QR)
			}
			// A = p·A′ for every q_r ≥ 1.
			if math.Abs(rf.Availability-p*rp.Availability) > 1e-9 {
				t.Fatalf("trial %d α=%g: A=%g, p·A'=%g",
					trial, alpha, rf.Availability, p*rp.Availability)
			}
		}
	}
}

func TestEstimatorConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewEstimator(0, 5) },
		func() { NewEstimator(5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestEstimatorNegativeDurationPanics(t *testing.T) {
	e := NewEstimator(1, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.ObserveFor(0, 1, -1)
}

func TestSurvEstimator(t *testing.T) {
	s := NewSurvEstimator(10)
	// Largest component: 10 votes 70% of the time, 6 votes 30%.
	s.ObserveFor(10, 7)
	s.ObserveFor(6, 3)
	m, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	// SURV availability for writes at q_w = 8: P[max ≥ 8] = 0.7.
	if got := m.WriteAvail(8); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("SURV W(8) = %g", got)
	}
	if got := m.ReadAvail(5); math.Abs(got-1) > 1e-12 {
		t.Fatalf("SURV R(5) = %g", got)
	}
	// SURV is an upper bound for ACC at equal quorums: the max component
	// has at least as many votes as any site's component.
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration should panic")
		}
	}()
	s.ObserveFor(1, -2)
}

func TestSurvEstimatorCountMode(t *testing.T) {
	s := NewSurvEstimator(5)
	for i := 0; i < 7; i++ {
		s.ObserveFor(5, 1)
	}
	for i := 0; i < 3; i++ {
		s.ObserveFor(2, 1)
	}
	m, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.WriteAvail(3); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("SURV W(3) = %g", got)
	}
}

// TestUniformModelIntoMatchesModel holds the reused-buffer model to
// Model(nil, nil) bit for bit at every q_r and q_w, on random histograms
// with empty rows, weights over many magnitudes and aged rows, while one
// estimator is Reset and refilled and one Model is rebuilt across sizes
// that grow and shrink (stale bins beyond the new T must not leak in).
func TestUniformModelIntoMatchesModel(t *testing.T) {
	src := rng.New(48)
	var reused Model
	var est *Estimator
	for trial := 0; trial < 400; trial++ {
		n, T := 1+src.Intn(12), 1+src.Intn(40)
		if est == nil || len(est.totals) != n || est.t != T || src.Intn(3) == 0 {
			est = NewEstimator(n, T)
		} else {
			est.Reset()
		}
		ref := NewEstimator(n, T)
		if src.Intn(4) == 0 {
			est.SetDecay(0.5)
			ref.SetDecay(0.5)
		}
		for i := 0; i < n; i++ {
			if src.Intn(3) == 0 {
				continue // an empty row: a point mass at zero votes
			}
			for k := src.Intn(30); k >= 0; k-- {
				v, w := src.Intn(T+1), math.Ldexp(src.Float64(), src.Intn(80)-40)
				est.ObserveFor(i, v, w)
				ref.ObserveFor(i, v, w)
			}
			if src.Intn(5) == 0 {
				est.Age()
				ref.Age()
			}
		}
		want, werr := ref.Model(nil, nil)
		gerr := est.UniformModelInto(&reused)
		if werr != nil || gerr != nil {
			t.Fatalf("trial %d: errors %v and %v", trial, werr, gerr)
		}
		if reused.T != want.T {
			t.Fatalf("trial %d: T %d, want %d", trial, reused.T, want.T)
		}
		for q := -1; q <= T+2; q++ {
			if g, w := reused.ReadAvail(q), want.ReadAvail(q); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("trial %d (n=%d T=%d): R(%d) = %v, want %v", trial, n, T, q, g, w)
			}
			if g, w := reused.WriteAvail(q), want.WriteAvail(q); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("trial %d (n=%d T=%d): W(%d) = %v, want %v", trial, n, T, q, g, w)
			}
		}
	}
	// The mixture check fails the same way: a row whose total overflows
	// normalizes to zero mass, so the mixture sums to (n−1)/n.
	bad, ref := NewEstimator(2, 4), NewEstimator(2, 4)
	for _, e := range []*Estimator{bad, ref} {
		e.ObserveFor(0, 1, math.MaxFloat64)
		e.ObserveFor(0, 2, math.MaxFloat64)
		e.ObserveFor(1, 3, 1)
	}
	_, werr := ref.Model(nil, nil)
	gerr := bad.UniformModelInto(&reused)
	if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
		t.Fatalf("mixture check: got %v, want %v", gerr, werr)
	}
}

// TestUniformModelIntoAllocs: once the buffers have grown, refilling the
// estimator and rebuilding the model allocate nothing.
func TestUniformModelIntoAllocs(t *testing.T) {
	e := NewEstimator(9, 9)
	var m Model
	fill := func() {
		e.Reset()
		for i := 0; i < 9; i++ {
			e.ObserveFor(i, i, 3)
			e.ObserveFor(i, 9, 1)
		}
		if err := e.UniformModelInto(&m); err != nil {
			t.Fatal(err)
		}
	}
	fill()
	if n := testing.AllocsPerRun(100, fill); n != 0 {
		t.Fatalf("Reset + UniformModelInto allocate %.1f objects, want 0", n)
	}
}
