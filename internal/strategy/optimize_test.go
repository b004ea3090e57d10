package strategy

import (
	"errors"
	"math"
	"testing"

	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
)

// randomSmallSystem draws a valid system with N ≤ 5 sites, weighted votes,
// and heterogeneous capacities/latencies.
func randomSmallSystem(src *rng.Source) System {
	n := 2 + src.Intn(4) // 2..5
	sys := System{
		Votes:    make([]int, n),
		ReadCap:  make([]float64, n),
		WriteCap: make([]float64, n),
		Latency:  make([]float64, n),
	}
	T := 0
	for i := 0; i < n; i++ {
		sys.Votes[i] = 1 + src.Intn(3)
		T += sys.Votes[i]
		sys.ReadCap[i] = 0.5 + 4*src.Float64()
		sys.WriteCap[i] = 0.25 + 2*src.Float64()
		sys.Latency[i] = 10 * src.Float64()
	}
	// 2·qw > T, then qr+qw > T.
	sys.QW = T/2 + 1 + src.Intn(T-T/2)
	sys.QR = T - sys.QW + 1 + src.Intn(sys.QW)
	return sys
}

func randomFrDist(src *rng.Source) FrDist {
	w := map[float64]float64{}
	for len(w) == 0 {
		atoms := 1 + src.Intn(3)
		for a := 0; a < atoms; a++ {
			fr := math.Round(src.Float64()*10) / 10
			w[fr] = 1 + 9*src.Float64()
		}
	}
	d, err := NewFrDist(w)
	if err != nil {
		panic(err)
	}
	return d
}

// gridStrategies enumerates all probability vectors with denominator den
// over k quorums (compositions of den into k parts).
func gridStrategies(k, den int) [][]float64 {
	var out [][]float64
	cur := make([]int, k)
	var rec func(i, left int)
	rec = func(i, left int) {
		if i == k-1 {
			cur[i] = left
			probs := make([]float64, k)
			for j, c := range cur {
				probs[j] = float64(c) / float64(den)
			}
			out = append(out, probs)
			return
		}
		for c := 0; c <= left; c++ {
			cur[i] = c
			rec(i+1, left-c)
		}
	}
	rec(0, den)
	return out
}

// TestCapacityOracle is the package's central property test: on ≥200
// randomized small systems, the LP optimum must (a) carry a duality
// certificate valid over the exhaustively enumerated quorum universe —
// the proof that NO strategy anywhere beats it — and (b) match brute
// force: no deterministic pair, random mixture, or fine-grid mixture does
// better, and the grid's best comes within its resolution bound of the LP,
// pinning equality from both sides.
func TestCapacityOracle(t *testing.T) {
	src := rng.New(0xACC0)
	grids := 0
	for trial := 0; trial < 220; trial++ {
		sys := randomSmallSystem(src)
		d := randomFrDist(src)
		res, err := OptimizeCapacity(sys, d, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := res.Certify(certTol); err != nil {
			t.Fatalf("trial %d: certificate rejected: %v", trial, err)
		}
		if err := CertifyGlobalCapacity(sys, d, 0, res, certTol); err != nil {
			t.Fatalf("trial %d: global certificate rejected: %v", trial, err)
		}
		if !res.PoolComplete || !res.Priced {
			t.Fatalf("trial %d: small system should enumerate completely", trial)
		}
		if err := res.Strategy.Validate(sys); err != nil {
			t.Fatalf("trial %d: optimal strategy invalid: %v", trial, err)
		}
		// The reported Value must be reproducible from the strategy itself.
		if v := res.Strategy.ExpectedMaxLoad(sys, d); math.Abs(v-res.Value) > 1e-9 {
			t.Fatalf("trial %d: Value %g but strategy recomputes to %g", trial, res.Value, v)
		}
		if math.Abs(res.Capacity*res.Value-1) > 1e-9 {
			t.Fatalf("trial %d: Capacity %g is not 1/Value %g", trial, res.Capacity, res.Value)
		}
		if res.Bound > res.Value+1e-12 {
			t.Fatalf("trial %d: bound %g exceeds value %g", trial, res.Bound, res.Value)
		}

		// Brute force, side one: nothing beats the LP.
		detBest, detCap, err := BestDeterministic(sys, d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if dl := detBest.ExpectedMaxLoad(sys, d); dl < res.Value-1e-9 {
			t.Fatalf("trial %d: deterministic pair load %g beats LP %g", trial, dl, res.Value)
		}
		if res.Capacity < detCap-1e-6 {
			t.Fatalf("trial %d: LP capacity %g below deterministic %g", trial, res.Capacity, detCap)
		}
		nR, nW := len(res.ReadPool), len(res.WritePool)
		for k := 0; k < 40; k++ {
			st := randomMixture(src, res.ReadPool, res.WritePool)
			if l := st.ExpectedMaxLoad(sys, d); l < res.Value-1e-9 {
				t.Fatalf("trial %d: random mixture load %g beats LP %g", trial, l, res.Value)
			}
		}

		// Side two, on pools small enough for a fine grid: some grid point
		// must come within the grid's resolution of the LP optimum, so the
		// LP equals the brute-force best up to grid granularity.
		const den = 12
		if nR <= 3 && nW <= 3 {
			grids++
			gridBest := math.Inf(1)
			readGrids := gridStrategies(nR, den)
			writeGrids := gridStrategies(nW, den)
			for _, rp := range readGrids {
				for _, wp := range writeGrids {
					st := Strategy{
						ReadQuorums: res.ReadPool, ReadProbs: rp,
						WriteQuorums: res.WritePool, WriteProbs: wp,
					}
					if l := st.ExpectedMaxLoad(sys, d); l < gridBest {
						gridBest = l
					}
				}
			}
			if gridBest < res.Value-1e-9 {
				t.Fatalf("trial %d: grid load %g beats LP %g", trial, gridBest, res.Value)
			}
			// Rounding the LP optimum to the grid moves at most (k−1)/den
			// total mass per side; each unit of mass changes any site's load
			// by at most its worst coefficient.
			worst := 0.0
			for x := 0; x < sys.N(); x++ {
				worst = math.Max(worst, 1/sys.ReadCap[x]+1/sys.WriteCap[x])
			}
			slack := worst * float64(nR+nW) / den
			if gridBest > res.Value+slack {
				t.Fatalf("trial %d: grid best %g is not within %g of LP %g",
					trial, gridBest, slack, res.Value)
			}
		}
	}
	if grids < 20 {
		t.Fatalf("only %d trials had pools small enough for the grid oracle", grids)
	}
}

func randomMixture(src *rng.Source, readPool, writePool []Quorum) Strategy {
	draw := func(k int) []float64 {
		ps := make([]float64, k)
		sum := 0.0
		for i := range ps {
			ps[i] = -math.Log(1 - src.Float64()) // Exp(1) → Dirichlet(1,…,1)
			sum += ps[i]
		}
		for i := range ps {
			ps[i] /= sum
		}
		return ps
	}
	return Strategy{
		ReadQuorums: readPool, ReadProbs: draw(len(readPool)),
		WriteQuorums: writePool, WriteProbs: draw(len(writePool)),
	}
}

// TestResilientCapacityOracle: f-resilient solves certify globally against
// the f-resilient quorum universe and never beat the unrestricted optimum.
func TestResilientCapacityOracle(t *testing.T) {
	src := rng.New(0xF001)
	checked := 0
	for trial := 0; trial < 1000 && checked < 60; trial++ {
		sys := randomSmallSystem(src)
		d := randomFrDist(src)
		pool, _ := quorum.ThresholdQuorums[Quorum](sys.Votes, sys.QR, 1, 0)
		wpool, _ := quorum.ThresholdQuorums[Quorum](sys.Votes, sys.QW, 1, 0)
		if len(pool) == 0 || len(wpool) == 0 {
			if _, err := OptimizeResilientCapacity(sys, d, 1, Options{}); err == nil {
				t.Fatalf("trial %d: no resilient quorums but solve succeeded", trial)
			}
			continue
		}
		checked++
		res, err := OptimizeResilientCapacity(sys, d, 1, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := CertifyGlobalCapacity(sys, d, 1, res, certTol); err != nil {
			t.Fatalf("trial %d: global certificate rejected: %v", trial, err)
		}
		plain, err := OptimizeCapacity(sys, d, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Capacity > plain.Capacity+1e-6 {
			t.Fatalf("trial %d: resilient capacity %g exceeds unrestricted %g",
				trial, res.Capacity, plain.Capacity)
		}
		for _, q := range res.Strategy.ReadQuorums {
			if resilientVotes(sys.Votes, q, 1) < sys.QR {
				t.Fatalf("trial %d: read quorum %v not 1-resilient", trial, q)
			}
		}
	}
	if checked < 40 {
		t.Fatalf("only %d trials had resilient pools to check", checked)
	}
}

// TestOptimizeLatency: with a loose limit the optimum picks the fastest
// quorums outright; tightening the limit trades latency for load headroom;
// an impossible limit yields a certified Farkas infeasibility proof.
func TestOptimizeLatency(t *testing.T) {
	sys := CaseStudySystem()
	d := CaseStudyFrDist()

	loose, err := OptimizeLatency(sys, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := loose.Certify(certTol); err != nil {
		t.Fatalf("loose certificate: %v", err)
	}
	// Fastest minimal quorum on both sides is {a, b, c} at latency 3.
	fbar := d.Mean()
	if want := fbar*3 + (1-fbar)*3; math.Abs(loose.Value-want) > 1e-9 {
		t.Fatalf("unconstrained latency %g, want %g", loose.Value, want)
	}

	capped, err := OptimizeLatency(sys, d, CaseStudyLoadLimit())
	if err != nil {
		t.Fatal(err)
	}
	if err := capped.Certify(certTol); err != nil {
		t.Fatalf("capped certificate: %v", err)
	}
	if capped.Value < loose.Value-1e-12 {
		t.Fatalf("tighter limit improved latency: %g < %g", capped.Value, loose.Value)
	}
	// The load cap must actually hold for the returned strategy.
	for _, fr := range d.Fr {
		if ml := capped.Strategy.MaxLoad(sys, fr); ml > CaseStudyLoadLimit()+1e-12 {
			t.Fatalf("load %g exceeds limit at fr=%g", ml, fr)
		}
	}

	_, err = OptimizeLatency(sys, d, 1e-9)
	if !errors.Is(err, ErrLoadLimitInfeasible) {
		t.Fatalf("impossible limit: got %v, want ErrLoadLimitInfeasible", err)
	}

	if _, err := OptimizeLatency(sys, d, -1); err == nil {
		t.Fatal("negative load limit accepted")
	}
}

// TestLatencyInfeasibleCertificate: the returned Result carries the Farkas
// witness and it verifies.
func TestLatencyInfeasibleCertificate(t *testing.T) {
	sys := CaseStudySystem()
	d := CaseStudyFrDist()
	res, err := OptimizeLatency(sys, d, 1e-9)
	if !errors.Is(err, ErrLoadLimitInfeasible) {
		t.Fatalf("got %v", err)
	}
	if res == nil {
		t.Fatal("no Result returned with the infeasibility error")
	}
	if res.Sol.Status != StatusInfeasible {
		t.Fatalf("status %v", res.Sol.Status)
	}
	if err := res.Certify(certTol); err != nil {
		t.Fatalf("Farkas certificate rejected: %v", err)
	}
}

// TestOptimizerRejectsBadInputs covers the argument-validation paths.
func TestOptimizerRejectsBadInputs(t *testing.T) {
	sys := CaseStudySystem()
	d := CaseStudyFrDist()
	bad := sys
	bad.QR = 0
	if _, err := OptimizeCapacity(bad, d, Options{}); err == nil {
		t.Error("invalid system accepted")
	}
	if _, err := OptimizeCapacity(sys, FrDist{}, Options{}); err == nil {
		t.Error("empty fr distribution accepted")
	}
	if _, err := OptimizeResilientCapacity(sys, d, -1, Options{}); err == nil {
		t.Error("negative resilience accepted")
	}
	if _, err := OptimizeResilientCapacity(sys, d, 5, Options{}); err == nil {
		t.Error("unsatisfiable resilience accepted")
	}
}
