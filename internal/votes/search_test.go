package votes

import (
	"math"
	"reflect"
	"testing"

	"quorumkit/internal/core"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/strategy"
)

// countingObjective wraps an Objective, counting evaluations and recording
// every vector scored so tests can assert nothing is evaluated twice.
type countingObjective struct {
	inner Objective
	count int
	seen  map[string]int
}

func newCounting(inner Objective) *countingObjective {
	return &countingObjective{inner: inner, seen: map[string]int{}}
}

func (c *countingObjective) Name() string { return c.inner.Name() }

func (c *countingObjective) Eval(v quorum.VoteAssignment) (ObjValue, error) {
	c.count++
	c.seen[voteKey(v)]++
	return c.inner.Eval(v)
}

func smallCases() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"star4", graph.Star(4)},
		{"star5", graph.Star(5)},
		{"star6", graph.Star(6)},
		{"path4", graph.Path(4)},
		{"path5", graph.Path(5)},
		{"path6", graph.Path(6)},
		{"grid2x3", graph.Grid(2, 3)},
	}
}

// TestAnnealMatchesExhaustiveSmallN is the oracle satellite: on every small
// topology the exhaustive optimum bounds annealing from above, and annealing
// with its default restarts must actually REACH that optimum at the fixed
// seed — the annealer is only trusted at scale because it is exact where
// exactness is checkable.
func TestAnnealMatchesExhaustiveSmallN(t *testing.T) {
	for _, tc := range smallCases() {
		t.Run(tc.name, func(t *testing.T) {
			obj := ExactObjective{G: tc.g, Cfg: Config{P: 0.9, R: 0.6, Alpha: 0.5, MaxVotesPerSite: 2}}
			scfg := SearchConfig{MaxVotesPerSite: 2, Seed: 1}
			ex, err := ExhaustiveObjective(tc.g.N(), obj, scfg)
			if err != nil {
				t.Fatal(err)
			}
			an, err := Anneal(tc.g.N(), obj, scfg)
			if err != nil {
				t.Fatal(err)
			}
			if an.Value > ex.Value+1e-12 {
				t.Fatalf("anneal %.12f above the exhaustive optimum %.12f — oracle violated", an.Value, ex.Value)
			}
			if an.Value < ex.Value-1e-9 {
				t.Fatalf("anneal %.12f failed to reach the exhaustive optimum %.12f at seed 1 (votes %v vs %v)",
					an.Value, ex.Value, an.Votes, ex.Votes)
			}
			for _, r := range []SearchResult{ex, an} {
				if !r.Cert.Intersects() {
					t.Fatalf("returned result is uncertified: %+v", r.Cert)
				}
				if err := r.Assignment.Validate(r.Votes.Total()); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestHillClimbBoundedByExhaustive: the memoized climb is also bounded from
// above by the exhaustive oracle, and never worse than its uniform start.
func TestHillClimbBoundedByExhaustive(t *testing.T) {
	for _, tc := range smallCases() {
		obj := ExactObjective{G: tc.g, Cfg: Config{P: 0.9, R: 0.6, Alpha: 0.5, MaxVotesPerSite: 2}}
		scfg := SearchConfig{MaxVotesPerSite: 2}
		ex, err := ExhaustiveObjective(tc.g.N(), obj, scfg)
		if err != nil {
			t.Fatal(err)
		}
		hc, err := HillClimbObjective(tc.g.N(), obj, quorum.UniformVotes(tc.g.N()), scfg)
		if err != nil {
			t.Fatal(err)
		}
		uni, err := obj.Eval(quorum.UniformVotes(tc.g.N()))
		if err != nil {
			t.Fatal(err)
		}
		if hc.Value > ex.Value+1e-12 {
			t.Fatalf("%s: hill climb %g above exhaustive %g", tc.name, hc.Value, ex.Value)
		}
		if hc.Value < uni.Value-1e-12 {
			t.Fatalf("%s: hill climb %g below its uniform start %g", tc.name, hc.Value, uni.Value)
		}
	}
}

// TestAnnealDeterminism: the whole SearchResult — votes, value, certificate,
// counters, and the trajectory hash folded over every proposal — must be
// identical across reruns with the same seed, and a different seed must
// follow a different trajectory.
func TestAnnealDeterminism(t *testing.T) {
	sc, err := SampleScenarios(graph.Star(20), 0.9, 0.7, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) SearchResult {
		obj, err := NewAvailObjective(sc, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Anneal(20, obj, SearchConfig{MaxVotesPerSite: 3, Seed: seed, Steps: 300, Restarts: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(77), run(77)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different results:\n%+v\n%+v", a, b)
	}
	c := run(78)
	if c.TrajectoryHash == a.TrajectoryHash {
		t.Fatal("different seeds produced the same trajectory hash")
	}
}

// TestAnnealNeverBelowUniform: restart 0 starts from the uniform assignment
// and the incumbent best tracks every certified evaluation, so the returned
// value can never be worse than the uniform baseline — the structural
// guarantee behind the bench gate's weighted-vs-uniform assertion.
func TestAnnealNeverBelowUniform(t *testing.T) {
	sc, err := SampleScenarios(graph.Star(30), 0.85, 0.6, 500, 13)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := NewAvailObjective(sc, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := obj.Eval(quorum.UniformVotes(30))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Anneal(30, obj, SearchConfig{MaxVotesPerSite: 4, Seed: 3, Steps: 400, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value < uni.Value {
		t.Fatalf("anneal %g below uniform %g", res.Value, uni.Value)
	}
	if res.Accepted != res.CertifiedAccepts {
		t.Fatalf("accepted %d but only %d certified — an uncertified candidate was accepted", res.Accepted, res.CertifiedAccepts)
	}
	if res.Evaluations <= 0 {
		t.Fatal("no evaluations counted")
	}
}

// TestScalingInvariance is the metamorphic satellite: multiplying every
// weight by k maps each threshold pair (q_r, T−q_r+1) onto
// (k·(q_r−1)+1, kT−k·(q_r−1)), and the availability of every mapped pair is
// BIT-identical — the scaled density has its mass at multiples of k and the
// suffix sums accumulate the same floats in the same order. The family
// itself grows (scaling refines granularity — that is exactly why the
// annealer's rescale move exists), so the scaled OPTIMUM may only improve,
// never degrade. Coterie structure of mapped pairs is checked exhaustively:
// every site subset makes the same read/write grant decisions.
func TestScalingInvariance(t *testing.T) {
	const alpha = 0.6
	sc, err := SampleScenarios(graph.Star(7), 0.9, 0.7, 3000, 21)
	if err != nil {
		t.Fatal(err)
	}
	base := quorum.VoteAssignment{3, 1, 2, 1, 1, 2, 1}
	T := base.Total()
	pmf1, err := sc.Density(base)
	if err != nil {
		t.Fatal(err)
	}
	curve1 := core.AvailabilityCurveInto(alpha, pmf1, pmf1, nil)
	_, opt1 := core.OptimizeCurve(curve1)
	for _, k := range []int{2, 3, 5} {
		scaled := make(quorum.VoteAssignment, len(base))
		for i, v := range base {
			scaled[i] = k * v
		}
		pmf2, err := sc.Density(scaled)
		if err != nil {
			t.Fatal(err)
		}
		curve2 := core.AvailabilityCurveInto(alpha, pmf2, pmf2, nil)
		for qr := 1; qr <= T/2; qr++ {
			mapped := k*(qr-1) + 1
			if curve2[mapped-1] != curve1[qr-1] {
				t.Fatalf("k=%d: A(q_r=%d) scaled to %.17g at q_r'=%d, base %.17g — not bit-identical",
					k, qr, curve2[mapped-1], mapped, curve1[qr-1])
			}
			// Same coteries for the mapped pair: identical grant decisions.
			a1 := quorum.Assignment{QR: qr, QW: T - qr + 1}
			a2 := quorum.Assignment{QR: mapped, QW: k*T - mapped + 1}
			for mask := 0; mask < 1<<len(base); mask++ {
				w1, w2 := 0, 0
				for i := range base {
					if mask&(1<<i) != 0 {
						w1 += base[i]
						w2 += scaled[i]
					}
				}
				if a1.GrantRead(w1) != a2.GrantRead(w2) || a1.GrantWrite(w1) != a2.GrantWrite(w2) {
					t.Fatalf("k=%d q_r=%d mask %b: grant decisions differ", k, qr, mask)
				}
			}
		}
		if _, opt2 := core.OptimizeCurve(curve2); opt2 < opt1 {
			t.Fatalf("k=%d: scaling degraded the optimum: %.17g vs %.17g", k, opt2, opt1)
		}
	}
}

// TestHillClimbMatchesSeedEngine: the memoized climb must return exactly the
// result of the seed engine's naive re-evaluating climb (replicated here),
// while spending strictly fewer objective evaluations — the regression test
// for the redundant-re-evaluation fix.
func TestHillClimbMatchesSeedEngine(t *testing.T) {
	g := graph.Star(5)
	cfg := Config{P: 0.9, R: 0.7, Alpha: 0.5, MaxVotesPerSite: 3}

	// Naive replica of the pre-fix climb: evaluates every feasible neighbor
	// every round, including vectors it has already scored.
	naiveEvals := 0
	naive, err := func() (Evaluation, error) {
		n := g.N()
		eval := func(v quorum.VoteAssignment) (Evaluation, error) {
			naiveEvals++
			return Evaluate(g, v, cfg)
		}
		cur, err := eval(quorum.UniformVotes(n))
		if err != nil {
			return Evaluation{}, err
		}
		budget := n * cfg.MaxVotesPerSite // TotalBudget unset
		for {
			best := cur
			improved := false
			for site := 0; site < n; site++ {
				for _, delta := range []int{1, -1} {
					cand := append(quorum.VoteAssignment(nil), cur.Votes...)
					cand[site] += delta
					if cand[site] < 0 || cand[site] > cfg.MaxVotesPerSite {
						continue
					}
					if cand.Total() == 0 || cand.Total() > budget {
						continue
					}
					ev, err := eval(cand)
					if err != nil {
						return Evaluation{}, err
					}
					if ev.Availability > best.Availability+1e-12 {
						best = ev
						improved = true
					}
				}
			}
			if !improved {
				return cur, nil
			}
			cur = best
		}
	}()
	if err != nil {
		t.Fatal(err)
	}

	got, err := HillClimb(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Votes, naive.Votes) || got.Assignment != naive.Assignment ||
		got.Availability != naive.Availability {
		t.Fatalf("memoized climb diverged from the seed engine:\n%+v\n%+v", got, naive)
	}
	if got.Evaluations >= naiveEvals {
		t.Fatalf("memoized climb spent %d evaluations, naive %d — the cache saved nothing", got.Evaluations, naiveEvals)
	}
	t.Logf("evaluations: memoized %d vs naive %d", got.Evaluations, naiveEvals)
}

// TestHillClimbNeverEvaluatesTwice: the memo must make every scored vector
// unique, and the reported Evaluations must equal the true count.
func TestHillClimbNeverEvaluatesTwice(t *testing.T) {
	g := graph.Star(5)
	co := newCounting(ExactObjective{G: g, Cfg: Config{P: 0.9, R: 0.7, Alpha: 0.5, MaxVotesPerSite: 3}})
	res, err := HillClimbObjective(5, co, quorum.UniformVotes(5), SearchConfig{MaxVotesPerSite: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != co.count {
		t.Fatalf("reported %d evaluations, objective saw %d", res.Evaluations, co.count)
	}
	for k, c := range co.seen {
		if c > 1 {
			t.Fatalf("vector %x evaluated %d times", k, c)
		}
	}
	if len(co.seen) != co.count {
		t.Fatalf("%d distinct vectors but %d evaluations", len(co.seen), co.count)
	}
}

// TestAnnealCapacityObjective: the capacity objective plugs into the same
// engine — every candidate is scored by the certified LP and the returned
// weighted system's capacity is at least the uniform system's.
func TestAnnealCapacityObjective(t *testing.T) {
	n := 6
	readCap := []float64{4000, 2000, 4000, 2000, 4000, 2000}
	writeCap := []float64{2000, 1000, 2000, 1000, 2000, 1000}
	fr, err := strategy.NewFrDist(map[float64]float64{0.9: 1})
	if err != nil {
		t.Fatal(err)
	}
	obj := CapacityObjective{ReadCap: readCap, WriteCap: writeCap, Dist: fr}
	uni, err := obj.Eval(quorum.UniformVotes(n))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Anneal(n, obj, SearchConfig{MaxVotesPerSite: 3, Seed: 2, Steps: 60, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value < uni.Value {
		t.Fatalf("anneal capacity %g below uniform %g", res.Value, uni.Value)
	}
	if res.Value <= 0 || math.IsInf(res.Value, 0) {
		t.Fatalf("capacity %g", res.Value)
	}
	if !res.Cert.Intersects() {
		t.Fatal("capacity winner is uncertified")
	}
	if obj.Name() != "capacity" {
		t.Fatalf("name %q", obj.Name())
	}
}

func TestMajorityPairingCertifies(t *testing.T) {
	// The capacity objective's majority pairing must reject T<2 but certify
	// everything else, including zero-vote sites.
	if _, err := strategy.MajoritySystem([]int{1}, []float64{1}, []float64{1}, nil); err == nil {
		t.Fatal("T=1 accepted")
	}
	sys, err := strategy.MajoritySystem([]int{3, 0, 1}, []float64{1, 1, 1}, []float64{1, 1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := Certify(sys.Votes, sys.QR, sys.QW)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Intersects() {
		t.Fatalf("majority pairing (%d, %d) uncertified for T=4", sys.QR, sys.QW)
	}
}

func TestSearchConfigValidation(t *testing.T) {
	obj := ExactObjective{G: graph.Star(4), Cfg: Config{P: 0.9, R: 0.7, Alpha: 0.5, MaxVotesPerSite: 2}}
	bad := []SearchConfig{
		{},                                      // MaxVotesPerSite missing
		{MaxVotesPerSite: 2, TotalBudget: -1},   // negative budget
		{MaxVotesPerSite: 2, TotalBudget: 2},    // budget below uniform (n=4)
		{MaxVotesPerSite: 2, Steps: -1},         // negative steps
		{MaxVotesPerSite: 2, InitTemp: 1e-5, FinalTemp: 1e-3}, // inverted schedule
	}
	for i, cfg := range bad {
		if _, err := Anneal(4, obj, cfg); err == nil {
			t.Fatalf("bad config %d accepted by Anneal", i)
		}
	}
	if _, err := Anneal(0, obj, SearchConfig{MaxVotesPerSite: 2}); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := HillClimbObjective(4, obj, quorum.VoteAssignment{1, 1}, SearchConfig{MaxVotesPerSite: 2}); err == nil {
		t.Fatal("start length mismatch accepted")
	}
	if _, err := ExhaustiveObjective(9, obj, SearchConfig{MaxVotesPerSite: 1}); err == nil {
		t.Fatal("exhaustive over 9 sites accepted")
	}
}

// erroringObjective fails after a fixed number of calls, to exercise the
// error propagation paths of each engine.
type erroringObjective struct {
	inner Objective
	after int
	calls int
}

func (e *erroringObjective) Name() string { return "erroring" }

func (e *erroringObjective) Eval(v quorum.VoteAssignment) (ObjValue, error) {
	e.calls++
	if e.calls > e.after {
		return ObjValue{}, errBoom
	}
	return e.inner.Eval(v)
}

var errBoom = &boomError{}

type boomError struct{}

func (*boomError) Error() string { return "boom" }

func TestSearchPropagatesObjectiveErrors(t *testing.T) {
	inner := ExactObjective{G: graph.Star(4), Cfg: Config{P: 0.9, R: 0.7, Alpha: 0.5, MaxVotesPerSite: 2}}
	for _, after := range []int{0, 1, 3} {
		if _, err := Anneal(4, &erroringObjective{inner: inner, after: after}, SearchConfig{MaxVotesPerSite: 2, Steps: 50, Restarts: 2}); err == nil {
			t.Fatalf("Anneal swallowed an objective error (after=%d)", after)
		}
	}
	if _, err := HillClimbObjective(4, &erroringObjective{inner: inner, after: 2}, quorum.UniformVotes(4), SearchConfig{MaxVotesPerSite: 2}); err == nil {
		t.Fatal("HillClimbObjective swallowed an objective error")
	}
	if _, err := ExhaustiveObjective(4, &erroringObjective{inner: inner, after: 2}, SearchConfig{MaxVotesPerSite: 1}); err == nil {
		t.Fatal("ExhaustiveObjective swallowed an objective error")
	}
}

// TestAnnealScales: a certified 100-site search over frozen scenarios must
// complete and return a certified, uniform-or-better result. The `go test`
// timeout budget enforces "seconds, not minutes".
func TestAnnealScales(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n anneal")
	}
	sc, err := SampleScenarios(graph.Star(100), 0.9, 0.7, 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := NewAvailObjective(sc, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := obj.Eval(quorum.UniformVotes(100))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Anneal(100, obj, SearchConfig{MaxVotesPerSite: 4, Seed: 6, Steps: 800, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value < uni.Value {
		t.Fatalf("100-site anneal %g below uniform %g", res.Value, uni.Value)
	}
	if !res.Cert.Intersects() {
		t.Fatal("100-site winner uncertified")
	}
}
