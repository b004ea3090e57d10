package votes

import (
	"fmt"
	"math"
	"testing"

	"quorumkit/internal/core"
	"quorumkit/internal/dist"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
)

// TestScenarioDensityMatchesMonteCarlo is the metamorphic anchor of the
// common-random-numbers engine: SampleScenarios consumes its stream exactly
// like dist.MonteCarlo, so for ANY weight vector the aggregate density it
// produces must equal the uniform mixture of MonteCarlo's per-site densities
// under the same seed — not statistically, but sample for sample — and the
// sample must price every threshold system as the kernel does.
func TestScenarioDensityMatchesMonteCarlo(t *testing.T) {
	const seed, count = 42, 2000
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		v    quorum.VoteAssignment
	}{
		{"star6-weighted", graph.Star(6), quorum.VoteAssignment{3, 1, 2, 1, 1, 2}},
		{"star6-uniform", graph.Star(6), quorum.UniformVotes(6)},
		{"path5-zero-site", graph.Path(5), quorum.VoteAssignment{2, 0, 1, 1, 3}},
		{"grid2x3", graph.Grid(2, 3), quorum.VoteAssignment{1, 2, 1, 2, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := SampleScenarios(tc.g, 0.8, 0.7, count, seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.density(tc.v, nil)
			if err != nil {
				t.Fatal(err)
			}
			perSite := dist.MonteCarlo(tc.g, tc.v, 0.8, 0.7, count, rng.New(seed))
			want := dist.Mixture(dist.Uniform(tc.g.N()), perSite)
			if len(got) != len(want) {
				t.Fatalf("density length %d, want %d", len(got), len(want))
			}
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-12 {
					t.Fatalf("density[%d] = %g, MonteCarlo mixture %g", i, got[i], want[i])
				}
			}
			if err := got.Validate(1e-9); err != nil {
				t.Fatal(err)
			}
			checkThresholdSystems(t, tc.name, sc, tc.v, got)
		})
	}
}

// TestScenarioDeterminism: same (g, p, r, count, seed) → identical densities;
// a different seed must actually change the sample.
func TestScenarioDeterminism(t *testing.T) {
	g := graph.Star(8)
	v := quorum.VoteAssignment{4, 1, 1, 2, 1, 1, 1, 1}
	a, err := SampleScenarios(g, 0.85, 0.6, 500, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleScenarios(g, 0.85, 0.6, 500, 9)
	if err != nil {
		t.Fatal(err)
	}
	da, _ := a.density(v, nil)
	db, _ := b.density(v, nil)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("same seed diverged at %d: %g vs %g", i, da[i], db[i])
		}
	}
	c, err := SampleScenarios(g, 0.85, 0.6, 500, 10)
	if err != nil {
		t.Fatal(err)
	}
	dc, _ := c.density(v, nil)
	same := true
	for i := range da {
		if da[i] != dc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 500-scenario samples")
	}
	if a.n != 8 || a.count != 500 {
		t.Fatalf("shape: n=%d count=%d", a.n, a.count)
	}
}

// TestAvailObjectiveMatchesExact pins the sampled objective to the exact
// oracle: with enough scenarios the estimated optimal availability must sit
// within Monte-Carlo noise of dist.Exact + Model.Optimize, and the selected
// assignment must satisfy the consistency conditions.
func TestAvailObjectiveMatchesExact(t *testing.T) {
	g := graph.Star(6)
	v := quorum.VoteAssignment{3, 1, 1, 1, 1, 1}
	exact := oracleOptimum(t, g, v, 0.9, 0.7, 0.5)
	sc, err := SampleScenarios(g, 0.9, 0.7, 60000, 11)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := NewAvailObjective(sc, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := obj.Eval(v)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Value-exact.Availability) > 0.02 {
		t.Fatalf("scenario availability %g vs exact %g", got.Value, exact.Availability)
	}
	if err := got.Assignment.Validate(v.Total()); err != nil {
		t.Fatal(err)
	}
	if obj.Name() != "avail" {
		t.Fatalf("name %q", obj.Name())
	}
}

// TestAvailObjectiveRepricesWithoutResampling: two evaluations of the same
// vector against one Scenarios must agree bit-for-bit (frozen sample), and
// evaluating a different vector must not disturb the first (buffer reuse).
func TestAvailObjectiveRepricesWithoutResampling(t *testing.T) {
	sc, err := SampleScenarios(graph.Star(5), 0.9, 0.6, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := NewAvailObjective(sc, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	v1 := quorum.VoteAssignment{3, 1, 1, 1, 1}
	v2 := quorum.VoteAssignment{1, 1, 1, 1, 1}
	a1, err := obj.Eval(v1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Eval(v2); err != nil {
		t.Fatal(err)
	}
	a1again, err := obj.Eval(v1)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a1again {
		t.Fatalf("re-evaluation drifted: %+v vs %+v", a1, a1again)
	}
}

func TestAvailObjectiveDegenerateSingleVote(t *testing.T) {
	// T=1 leaves no searchable quorum pair: the kernel's degenerate answer is
	// q_r=1 with -Inf availability, which the search engines then discard
	// (the ObjValue never beats any finite candidate).
	sc, err := SampleScenarios(graph.Path(3), 0.9, 0.9, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := NewAvailObjective(sc, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := obj.Eval(quorum.VoteAssignment{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(ov.Value, -1) || ov.Assignment.QR != 1 {
		t.Fatalf("degenerate T=1 gave %+v", ov)
	}
}

func TestScenarioErrorPaths(t *testing.T) {
	g := graph.Star(4)
	if _, err := SampleScenarios(g, 0.9, 0.9, 0, 1); err == nil {
		t.Fatal("zero count accepted")
	}
	if _, err := SampleScenarios(g, 1.5, 0.9, 10, 1); err == nil {
		t.Fatal("bad p accepted")
	}
	if _, err := SampleScenarios(g, 0.9, -0.1, 10, 1); err == nil {
		t.Fatal("bad r accepted")
	}
	sc, err := SampleScenarios(g, 0.9, 0.9, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAvailObjective(sc, 2); err == nil {
		t.Fatal("bad α accepted")
	}
	obj, err := NewAvailObjective(sc, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Eval(quorum.VoteAssignment{1, 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := obj.Eval(quorum.VoteAssignment{0, 0, 0, 0}); err == nil {
		t.Fatal("zero total accepted")
	}
	if _, err := sc.density(quorum.VoteAssignment{1}, nil); err == nil {
		t.Fatal("Density length mismatch accepted")
	}
	if _, err := sc.density(quorum.VoteAssignment{1, -1, 1, 1}, nil); err == nil {
		t.Fatal("Density negative weight accepted")
	}
}

// oracleOptimum is the paper's Figure-1 optimum for v computed the
// independent way: every configuration enumerated again for this one
// vector by dist.Exact, then Model.Optimize.
func oracleOptimum(tb testing.TB, g *graph.Graph, v quorum.VoteAssignment, p, r, alpha float64) core.Result {
	tb.Helper()
	m, err := core.NewModel(nil, nil, dist.Exact(g, v, p, r))
	if err != nil {
		tb.Fatal(err)
	}
	return m.Optimize(alpha)
}

// checkThresholdSystems: every vote-threshold system of the family, priced
// on the component table, gets the value the density and the curve kernel
// give its (q_r, T−q_r+1) pair.
func checkThresholdSystems(t *testing.T, name string, sc *Scenarios, v quorum.VoteAssignment, pmf dist.PMF) {
	t.Helper()
	T := v.Total()
	for _, alpha := range []float64{0, 0.3, 1} {
		curve := core.AvailabilityCurveInto(alpha, pmf, pmf, nil)
		for qr := 1; qr <= len(curve); qr++ {
			s := quorum.System{Read: quorum.Threshold(v, qr), Write: quorum.Threshold(v, T-qr+1)}
			got, err := sc.Availability(s, alpha)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-curve[qr-1]) > 1e-12 {
				t.Fatalf("%s %v α=%g q_r=%d: table %.17g, kernel %.17g", name, v, alpha, qr, got, curve[qr-1])
			}
		}
	}
}

// TestSystemAvailabilityRefuses: a read fraction outside [0, 1], a system
// whose write quorums can miss each other, and a table wider than a
// quorum.Group are errors.
func TestSystemAvailabilityRefuses(t *testing.T) {
	sc, err := ExactScenarios(graph.Ring(5), 0.9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	majority := quorum.Threshold(quorum.UniformVotes(5), 3)
	if _, err := sc.Availability(quorum.System{Read: majority, Write: majority}, 1.5); err == nil {
		t.Fatal("α = 1.5 accepted")
	}
	if _, err := sc.Availability(quorum.System{Read: quorum.Site(0), Write: quorum.Site(1)}, 0.5); err == nil {
		t.Fatal("disjoint write quorums accepted")
	}
	wide, err := SampleScenarios(graph.Path(65), 0.9, 0.9, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wide.Availability(quorum.System{Read: majority, Write: majority}, 0.5); err == nil {
		t.Fatal("65 sites accepted")
	}
}

// TestExactScenariosMatchDistExact pins the once-enumerated engine to
// dist.Exact, which enumerates every configuration again per vector: the
// aggregate density equals the uniform mixture of dist.Exact's per-site
// densities (and prices every threshold system as the kernel does), and on
// every grid2x3 vector with at most two votes per site
// the objective picks Model.Optimize's quorum pair at its value. The
// subtests run in parallel: the oracle is the slow side.
func TestExactScenariosMatchDistExact(t *testing.T) {
	g := graph.Grid(2, 3)
	if _, err := ExactScenarios(graph.Path(13), 0.9, 0.9); err == nil {
		t.Fatal("n+m = 25 accepted")
	}
	if _, err := ExactScenarios(graph.Complete(7), 0.9, 1); err != nil {
		t.Fatalf("K7 with perfect links (7 enumerated parts) refused: %v", err)
	}
	if _, err := ExactScenarios(g, 1.5, 0.9); err == nil {
		t.Fatal("p = 1.5 accepted")
	}
	if _, err := ExactScenarios(g, 0.9, math.NaN()); err == nil {
		t.Fatal("r = NaN accepted")
	}
	t.Parallel()

	t.Run("densities", func(t *testing.T) {
		t.Parallel()
		for _, tc := range []struct {
			name string
			g    *graph.Graph
		}{
			{"star5", graph.Star(5)},
			{"path5", graph.Path(5)},
			{"ring5", graph.Ring(5)},
			{"grid2x3", g},
			{"complete5", graph.Complete(5)},
		} {
			n := tc.g.N()
			weighted := make(quorum.VoteAssignment, n)
			zero := make(quorum.VoteAssignment, n)
			for i := range weighted {
				weighted[i] = 1 + i%3
				zero[i] = i % 2 * (i + 1)
			}
			// (0.9, 1) takes the perfect-link walk.
			for _, pr := range [][2]float64{{0.9, 0.6}, {0.9, 1}, {0, 1}, {1, 0}} {
				sc, err := ExactScenarios(tc.g, pr[0], pr[1])
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range []quorum.VoteAssignment{quorum.UniformVotes(n), weighted, zero} {
					got, err := sc.density(v, nil)
					if err != nil {
						t.Fatal(err)
					}
					want := dist.Mixture(dist.Uniform(n), dist.Exact(tc.g, v, pr[0], pr[1]))
					if len(got) != len(want) {
						t.Fatalf("%s p=%g r=%g %v: density length %d, want %d", tc.name, pr[0], pr[1], v, len(got), len(want))
					}
					for i := range got {
						if math.Abs(got[i]-want[i]) > 1e-12 {
							t.Fatalf("%s p=%g r=%g %v: density[%d] = %.17g, dist.Exact %.17g", tc.name, pr[0], pr[1], v, i, got[i], want[i])
						}
					}
					checkThresholdSystems(t, fmt.Sprintf("%s p=%g r=%g", tc.name, pr[0], pr[1]), sc, v, got)
				}
			}
		}
	})

	// All 728 nonzero vectors, split by site 0's votes into three parallel
	// subtests (each with its own objective: Eval reuses buffers).
	for first := 0; first < 3; first++ {
		t.Run(fmt.Sprintf("grid2x3-site0=%d", first), func(t *testing.T) {
			t.Parallel()
			obj := exactObjective(t, g, 0.9, 0.6, 0.5)
			if obj.Name() != "avail-exact" {
				t.Fatalf("name %q", obj.Name())
			}
			seen := map[uint32]bool{}
			mi := int32(0)
			for _, end := range obj.Scen.compEnd {
				var k uint32
				for _, site := range obj.Scen.members[mi:end] {
					k |= 1 << site
				}
				if seen[k] {
					t.Fatalf("component %b kept twice", k)
				}
				seen[k], mi = true, end
			}
			v := make(quorum.VoteAssignment, g.N())
			v[0] = first
			for code := 0; code < 243; code++ {
				for i, c := 1, code; i < len(v); i, c = i+1, c/3 {
					v[i] = c % 3
				}
				if v.Total() == 0 {
					continue
				}
				got, err := obj.Eval(v)
				if err != nil {
					t.Fatal(err)
				}
				want := oracleOptimum(t, g, v, 0.9, 0.6, 0.5)
				if got.Assignment != want.Assignment || math.Abs(got.Value-want.Availability) > 1e-12 {
					t.Fatalf("%v: %v A=%.17g, Model.Optimize %v A=%.17g", v, got.Assignment, got.Value, want.Assignment, want.Availability)
				}
			}
		})
	}
}
