package strategy

import (
	"math"
	"testing"

	"quorumkit/internal/rng"
)

// genTol is the certification tolerance for column-generation runs: their
// tableaux see far more pivots than enumerated solves, so roundoff grows
// beyond the 1e-9 we hold enumerated runs to.
const genTol = 1e-6

// uniformSystem builds an n-site majority system with heterogeneous
// capacities and latencies drawn from seed.
func uniformSystem(n int, seed uint64) System {
	src := rng.New(seed)
	sys := System{
		Votes: make([]int, n), QR: n/2 + 1, QW: n/2 + 1,
		ReadCap:  make([]float64, n),
		WriteCap: make([]float64, n),
		Latency:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		sys.Votes[i] = 1
		sys.ReadCap[i] = 1000 + 3000*src.Float64()
		sys.WriteCap[i] = 500 + 1500*src.Float64()
		sys.Latency[i] = 1 + 9*src.Float64()
	}
	return sys
}

// threeAtoms is the 3-atom read-fraction distribution the oracles share.
func threeAtoms(t *testing.T) FrDist {
	t.Helper()
	d, err := NewFrDist(map[float64]float64{0.8: 2, 0.5: 1, 0.2: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// enumeratedCapacity is the test oracle for the capacity optimizers: the LP
// over every minimal f-resilient quorum, however many there are, solved
// exactly as optimizeCapacity solves the pools it enumerates.
func enumeratedCapacity(t *testing.T, sys System, d FrDist, f int) *Result {
	t.Helper()
	reads, rOK := MinimalResilientQuorums(sys.Votes, sys.QR, f, 0)
	writes, wOK := MinimalResilientQuorums(sys.Votes, sys.QW, f, 0)
	if !rOK || !wOK || len(reads) == 0 || len(writes) == 0 {
		t.Fatalf("oracle: no complete non-empty pools (%d read, %d write)", len(reads), len(writes))
	}
	scale := capScale(sys)
	lp, _, sol, err := solveCapacityLP(sys, d, reads, writes, scale)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	res := assembleCapacity(sys, lp, sol, reads, writes, scale)
	res.PoolComplete, res.Priced = true, true
	res.Bound = res.Value
	return res
}

// TestGenerationMatchesEnumerated runs column generation to convergence and
// checks it reaches the same optimum as the complete-pool solve on systems
// small enough to enumerate — under a 3-atom fr distribution and under
// SingleFr(0.75) (the solve ladder's and the daemon's), at f = 0 and f = 1.
func TestGenerationMatchesEnumerated(t *testing.T) {
	for _, d := range []FrDist{threeAtoms(t), SingleFr(0.75)} {
		for f := 0; f <= 1; f++ {
			for _, n := range []int{7, 9, 11} {
				sys := uniformSystem(n, uint64(n))
				exact := enumeratedCapacity(t, sys, d, f)
				gen, err := generateCapacity(sys, d, f, capScale(sys), 0)
				if err != nil {
					t.Fatalf("n=%d f=%d %v generated: %v", n, f, d.Fr, err)
				}
				if gen.PoolComplete {
					t.Fatalf("n=%d f=%d %v: generation claimed a complete pool", n, f, d.Fr)
				}
				if !gen.Priced {
					t.Fatalf("n=%d f=%d %v: pricing did not converge", n, f, d.Fr)
				}
				if gen.Rounds == 0 || gen.Generated == 0 {
					t.Fatalf("n=%d f=%d %v: generation did no work (rounds=%d generated=%d)",
						n, f, d.Fr, gen.Rounds, gen.Generated)
				}
				if err := gen.Certify(genTol); err != nil {
					t.Fatalf("n=%d f=%d %v certify: %v", n, f, d.Fr, err)
				}
				if rel := math.Abs(gen.Value-exact.Value) / exact.Value; rel > 1e-6 {
					t.Fatalf("n=%d f=%d %v: generated value %.12g vs enumerated %.12g (rel %g)",
						n, f, d.Fr, gen.Value, exact.Value, rel)
				}
				if gen.Bound > gen.Value+1e-12 || gen.Bound < exact.Value-1e-6*exact.Value {
					t.Fatalf("n=%d f=%d %v: bound %.12g outside [optimum, value] = [%.12g, %.12g]",
						n, f, d.Fr, gen.Bound, exact.Value, gen.Value)
				}
				if err := gen.Strategy.Validate(sys); err != nil {
					t.Fatalf("n=%d f=%d %v: generated strategy invalid: %v", n, f, d.Fr, err)
				}
			}
		}
	}
}

// TestGenerationExactBelowCap: past enumerateMax, systems with at most
// exactMax minimal quorums a side go to column generation, which must still
// reach the exact optimum — Priced, equal to the complete-pool oracle, and
// dual-feasible on every minimal quorum — even when the caller allows a 5%
// gap. 11 to 13 unit-vote sites span 330 to 1,716 quorums a side.
func TestGenerationExactBelowCap(t *testing.T) {
	for _, d := range []FrDist{SingleFr(0.75), threeAtoms(t)} {
		for f := 0; f <= 1; f++ {
			for _, n := range []int{11, 12, 13} {
				sys := uniformSystem(n, uint64(n))
				res, err := OptimizeResilientCapacity(sys, d, f, Options{TargetGap: 0.05})
				if err != nil {
					t.Fatalf("n=%d f=%d %v: %v", n, f, d.Fr, err)
				}
				if res.PoolComplete || !res.Priced {
					t.Fatalf("n=%d f=%d %v: PoolComplete=%v Priced=%v, want generation to convergence",
						n, f, d.Fr, res.PoolComplete, res.Priced)
				}
				exact := enumeratedCapacity(t, sys, d, f)
				if rel := math.Abs(res.Value-exact.Value) / exact.Value; rel > 1e-9 {
					t.Fatalf("n=%d f=%d %v: value %.15g vs enumerated %.15g (rel %g)",
						n, f, d.Fr, res.Value, exact.Value, rel)
				}
				if err := CertifyGlobalCapacity(sys, d, f, res, genTol); err != nil {
					t.Fatalf("n=%d f=%d %v: %v", n, f, d.Fr, err)
				}
			}
		}
	}
}

// TestSolvePathBoundaries pins where the solve paths meet: exactly 256
// (enumerateMax) minimal quorums a side still enumerates and 257 do not,
// and 14 sites at f = 1 — C(14, 9) = 2,002 quorums a side, just under
// exactMax — still converges under a 5% gap.
func TestSolvePathBoundaries(t *testing.T) {
	fr := SingleFr(0.75)
	weighted := func(votes []int, q int) System {
		sys := uniformSystem(len(votes), uint64(len(votes)))
		sys.Votes, sys.QR, sys.QW = votes, q, q
		return sys
	}
	for _, c := range []struct {
		sys      System
		pool     int
		complete bool
	}{
		{weighted([]int{2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1}, 10), 256, true},
		{weighted([]int{3, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1, 1}, 16), 257, false},
	} {
		if got, _ := MinimalQuorums(c.sys.Votes, c.sys.QR, 0); len(got) != c.pool {
			t.Fatalf("votes %v: %d minimal quorums, want %d", c.sys.Votes, len(got), c.pool)
		}
		res, err := OptimizeCapacity(c.sys, fr, Options{TargetGap: 0.05})
		if err != nil {
			t.Fatalf("votes %v: %v", c.sys.Votes, err)
		}
		if res.PoolComplete != c.complete || !res.Priced {
			t.Fatalf("votes %v (%d quorums a side): PoolComplete=%v Priced=%v, want %v, true",
				c.sys.Votes, c.pool, res.PoolComplete, res.Priced, c.complete)
		}
		exact := enumeratedCapacity(t, c.sys, fr, 0)
		if rel := math.Abs(res.Value-exact.Value) / exact.Value; rel > 1e-9 {
			t.Fatalf("votes %v: value %.15g vs enumerated %.15g (rel %g)", c.sys.Votes, res.Value, exact.Value, rel)
		}
	}

	sys := uniformSystem(14, 14)
	if _, ok := MinimalResilientQuorums(sys.Votes, sys.QR, 1, exactMax); !ok {
		t.Fatalf("14 sites at f=1 exceed %d quorums a side", exactMax)
	}
	res, err := OptimizeResilientCapacity(sys, fr, 1, Options{TargetGap: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolComplete || !res.Priced {
		t.Fatalf("14 sites, f=1: PoolComplete=%v Priced=%v, want generation to convergence", res.PoolComplete, res.Priced)
	}
	if err := CertifyGlobalCapacity(sys, fr, 1, res, genTol); err != nil {
		t.Fatalf("14 sites, f=1: %v", err)
	}
}

// TestLagrangeBoundAnyDuals: the Lagrangian bound column generation stops
// on is certified at any load-row duals λ ≤ 0, not only at a master's
// optimum. Random λ — half of them multiples of the optimal duals that
// overshoot the L columns' budget Σ_x −λ_jx ≤ p_j on purpose — never bound
// above the enumerated optimum, and at the optimum's own duals the bound is
// tight.
func TestLagrangeBoundAnyDuals(t *testing.T) {
	src := rng.New(29)
	rescaled := 0 // draws whose unscaled bound would exceed the optimum
	for _, d := range []FrDist{threeAtoms(t), SingleFr(0.75)} {
		J := len(d.Fr)
		for f := 0; f <= 1; f++ {
			for _, n := range []int{7, 9, 11} {
				sys := uniformSystem(n, uint64(n))
				exact := enumeratedCapacity(t, sys, d, f)
				opt := exact.Sol.Obj // rescaled units, as LB is
				g := newLagrangian(sys, d, f, exact.Scale)
				star := make([]float64, n*J)
				for i := range star {
					star[i] = math.Min(exact.Sol.Y[2+i], 0)
				}
				if _, _, lb := g.price(star); math.Abs(lb-opt) > 1e-9*opt {
					t.Fatalf("n=%d f=%d %v: LB at the optimal duals %.15g, optimum %.15g", n, f, d.Fr, lb, opt)
				}
				lam := make([]float64, n*J)
				for trial := 0; trial < 100; trial++ {
					c := 0.5 + 2.5*src.Float64()
					for i := range lam {
						if trial%2 == 0 {
							lam[i] = -2 * c * d.P[i/n] * src.Float64() / float64(n)
						} else {
							lam[i] = star[i] * (1 + 2*src.Float64())
						}
					}
					qR, qW, lb := g.price(lam)
					if qR == nil || qW == nil {
						t.Fatalf("n=%d f=%d: no cheapest quorum priced", n, f)
					}
					if lb > opt*(1+1e-12) {
						t.Fatalf("n=%d f=%d %v trial %d: LB %.15g above the optimum %.15g", n, f, d.Fr, trial, lb, opt)
					}
					s := 1.0
					for j := 0; j < J; j++ {
						use := 0.0
						for x := 0; x < n; x++ {
							use -= lam[j*n+x]
						}
						s = math.Max(s, use/d.P[j])
					}
					if lb*s > opt*(1+1e-12) {
						rescaled++
					}
				}
			}
		}
	}
	if rescaled == 0 {
		t.Fatal("no drawn λ needed the rescale, so the test cannot see it")
	}
}

// TestGenerationLadderGap: the solve ladder's column-generation rungs — 25
// and 31 sites, SingleFr(0.75), f ∈ {0, 1}, a 5% target gap — certify on
// 20 seeds each, with the bound under the value and the gap within target.
func TestGenerationLadderGap(t *testing.T) {
	const target = 0.05
	fr := SingleFr(0.75)
	for _, n := range []int{25, 31} {
		for seed := uint64(1); seed <= 20; seed++ {
			sys := uniformSystem(n, seed)
			for f := 0; f <= 1; f++ {
				res, err := OptimizeResilientCapacity(sys, fr, f, Options{TargetGap: target})
				if err != nil {
					t.Fatalf("n=%d seed=%d f=%d: %v", n, seed, f, err)
				}
				if res.PoolComplete {
					t.Fatalf("n=%d seed=%d f=%d: expected column generation", n, seed, f)
				}
				if err := res.Certify(genTol); err != nil {
					t.Fatalf("n=%d seed=%d f=%d certify: %v", n, seed, f, err)
				}
				if err := res.Strategy.Validate(sys); err != nil {
					t.Fatalf("n=%d seed=%d f=%d: strategy invalid: %v", n, seed, f, err)
				}
				if gap := (res.Value - res.Bound) / res.Value; res.Bound > res.Value || gap > target {
					t.Fatalf("n=%d seed=%d f=%d: bound %.12g, value %.12g, gap %g (target %g)",
						n, seed, f, res.Bound, res.Value, gap, target)
				}
			}
		}
	}
}

// TestGenerationLargeCertified: a 101-site heterogeneous system — far past
// any enumeration — solves to priced-out optimality with a valid
// certificate, and the whole run is deterministic.
func TestGenerationLargeCertified(t *testing.T) {
	if testing.Short() {
		t.Skip("column generation at n=101, solved twice, takes ~1.5s")
	}
	sys := uniformSystem(101, 7)
	d, err := NewFrDist(map[float64]float64{0.8: 2, 0.5: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeCapacity(sys, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolComplete {
		t.Fatal("n=101 should not enumerate completely")
	}
	if !res.Priced {
		t.Fatal("pricing did not converge")
	}
	if err := res.Certify(genTol); err != nil {
		t.Fatalf("certify: %v", err)
	}
	if gap := (res.Value - res.Bound) / res.Value; gap > 1e-6 {
		t.Fatalf("priced run left bound gap %g", gap)
	}
	if err := res.Strategy.Validate(sys); err != nil {
		t.Fatalf("strategy invalid: %v", err)
	}
	// Determinism: a second run from the same inputs lands on the same
	// objective and the same canonical strategy.
	res2, err := OptimizeCapacity(sys, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Value != res.Value || res2.Rounds != res.Rounds || res2.Generated != res.Generated {
		t.Fatalf("rerun diverged: value %.17g vs %.17g, rounds %d vs %d, generated %d vs %d",
			res2.Value, res.Value, res2.Rounds, res.Rounds, res2.Generated, res.Generated)
	}
	a, _ := res.Strategy.MarshalJSON()
	b, _ := res2.Strategy.MarshalJSON()
	if string(a) != string(b) {
		t.Fatal("rerun produced a different strategy")
	}
}

// TestGenerationTargetGap: a positive TargetGap stops generation early with
// a certified bound whose relative gap respects the target.
func TestGenerationTargetGap(t *testing.T) {
	if testing.Short() {
		t.Skip("column generation at n=101 takes ~0.3s")
	}
	sys := uniformSystem(101, 7)
	d, err := NewFrDist(map[float64]float64{0.8: 2, 0.5: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeCapacity(sys, d, Options{TargetGap: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Certify(genTol); err != nil {
		t.Fatalf("certify: %v", err)
	}
	if res.Bound <= 0 {
		t.Fatalf("no usable bound: %g", res.Bound)
	}
	if gap := (res.Value - res.Bound) / res.Value; gap > 0.05+1e-9 {
		t.Fatalf("gap %g exceeds target 0.05", gap)
	}
	if err := res.Strategy.Validate(sys); err != nil {
		t.Fatalf("strategy invalid: %v", err)
	}
}
