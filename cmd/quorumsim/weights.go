package main

// The weightcheck command closes the loop between the weighted-vote search and
// the event-driven simulator: the scenario engine predicts the availability
// of the annealer's winning assignment from frozen failure configurations,
// and the paper-faithful discrete-event simulator then measures the same
// assignment live. The two estimators share nothing — different randomness,
// different failure model realization (stationary alternating renewal vs
// independent Bernoulli configurations at the same per-component
// reliability) — so agreement within Monte-Carlo noise is a genuine
// end-to-end check of the search's objective, not a replay.

import (
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"quorumkit/internal/gate"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/sim"
	"quorumkit/internal/votes"
)

// runWeightCheck anneals weighted votes on a star (the asymmetric topology
// where weighting matters), predicts availability from the scenario sample,
// and crosschecks against sim.MeasureAvailability under the paper's
// stationary parameters. Exit status 1 when the estimators disagree by more
// than the tolerance or the weighted result falls below uniform.
func runWeightCheck(n int, alpha float64, seed uint64) int {
	if err := weightCheck(n, alpha, seed); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println("weightcheck OK: scenario prediction matches the discrete-event simulator")
	return 0
}

func weightCheck(n int, alpha float64, seed uint64) error {
	const (
		scenarios = 20_000
		tol       = 0.02
	)
	g := graph.Star(n)
	params := sim.PaperParams()
	rel := params.Reliability() // 0.96 for sites AND links, as in the paper

	sc, err := votes.SampleScenarios(g, rel, rel, scenarios, seed)
	if err != nil {
		return err
	}
	obj, err := votes.NewAvailObjective(sc, alpha)
	if err != nil {
		return err
	}
	res, err := votes.Anneal(n, obj, votes.SearchConfig{
		MaxVotesPerSite: 4, Seed: seed, Steps: 600, Restarts: 2,
	})
	if err != nil {
		return err
	}
	fmt.Printf("weightcheck: star(%d), α=%g, reliability %.4f\n", n, alpha, rel)
	fmt.Printf("  annealed votes %v  %v  predicted A = %.4f\n", res.Votes, res.Assignment, res.Value)
	fmt.Printf("  certificate: q_r+q_w=%d > T=%d, survives %d read / %d write failures\n",
		res.Cert.QR+res.Cert.QW, res.Cert.T, res.Cert.ReadSurvives, res.Cert.WriteSurvives)

	m, err := sim.MeasureAvailability(g, res.Votes, params, res.Assignment, alpha, sim.StudyConfig{
		Warmup: 10_000, BatchAccesses: 100_000,
		MinBatches: 5, MaxBatches: 18, CIHalfWidth: 0.005, Seed: seed,
	})
	if err != nil {
		return err
	}
	diff := math.Abs(m.Overall.Mean - res.Value)
	fmt.Printf("  simulator measured A = %.4f ± %.4f (%d batches), |Δ| = %.4f\n",
		m.Overall.Mean, m.Overall.HalfSize, m.Batches, diff)

	uni, err := obj.Eval(quorum.UniformVotes(n))
	if err != nil {
		return err
	}
	fmt.Printf("  uniform baseline predicted A = %.4f (weighted gain %+.4f)\n", uni.Value, res.Value-uni.Value)

	if diff > tol {
		return fmt.Errorf("weightcheck FAIL: prediction and simulation differ by %.4f (tolerance %.2f)", diff, tol)
	}
	if res.Value < uni.Value {
		return fmt.Errorf("weightcheck FAIL: weighted %.4f below uniform %.4f", res.Value, uni.Value)
	}
	return nil
}

// The weights suite: certified annealing runs at representative scales,
// gated against the committed BENCH_weights.json (DESIGN §19). The rows
// assert the search's quality contract: every accepted candidate carried an
// intersection certificate, the weighted result never fell below the
// uniform baseline, an in-process rerun with the same seed reproduced the
// result bit-for-bit, and the objective values match the committed baseline
// to 1e-9 relative (values are deterministic across machines up to last-ulp
// differences in math.Exp; the trajectory hash rides in the value row's
// note for forensics but is only compared within one host's double run).

// weightsCase is one scenario: a builder for the objective (fresh per run —
// objectives reuse internal buffers) and the search configuration.
type weightsCase struct {
	name string
	n    int
	obj  func() (votes.Objective, error)
	cfg  votes.SearchConfig
}

func weightsCases(seed uint64) []weightsCase {
	avail := func(g *graph.Graph, p, r, alpha float64, count int) func() (votes.Objective, error) {
		return func() (votes.Objective, error) {
			sc, err := votes.SampleScenarios(g, p, r, count, seed)
			if err != nil {
				return nil, err
			}
			return votes.NewAvailObjective(sc, alpha)
		}
	}
	return []weightsCase{
		{
			name: "star-100-avail",
			n:    100,
			obj:  avail(graph.Star(100), 0.9, 0.7, 0.5, 1000),
			cfg:  votes.SearchConfig{MaxVotesPerSite: 4, Seed: seed, Steps: 800, Restarts: 2},
		},
		{
			// The moderate-n regime where weighting strictly beats uniform:
			// on a 20-site star at r=0.7 the annealer finds hub-weighted
			// assignments worth ~+0.03 availability. (At n=100 the uniform
			// majority is already near-optimal — the star-100 case documents
			// that equality honestly rather than hiding it.)
			name: "star-20-avail",
			n:    20,
			obj:  avail(graph.Star(20), 0.9, 0.7, 0.5, 4000),
			cfg:  votes.SearchConfig{MaxVotesPerSite: 4, Seed: seed, Steps: 1000, Restarts: 2},
		},
		{
			name: "path-40-avail",
			n:    40,
			obj:  avail(graph.Path(40), 0.9, 0.8, 0.75, 800),
			cfg:  votes.SearchConfig{MaxVotesPerSite: 3, Seed: seed, Steps: 600, Restarts: 2},
		},
		{
			// The votes command's -objective capacity model.
			name: "tiered-12-capacity",
			n:    12,
			obj:  func() (votes.Objective, error) { return capacityObjective(12), nil },
			cfg:  votes.SearchConfig{MaxVotesPerSite: 3, Seed: seed, Steps: 80, Restarts: 1},
		},
	}
}

// benchWeights anneals every weights case twice (the determinism check)
// and emits the suite's rows. Elapsed time is printed, not written.
func benchWeights(seed uint64) (gate.File, error) {
	file := gate.File{Suite: "weights", Seed: seed}
	for _, c := range weightsCases(seed) {
		// Each anneal gets a FRESH objective: the rerun must reproduce the
		// entire SearchResult, trajectory hash included.
		var obj votes.Objective
		anneal := func() (res votes.SearchResult, err error) {
			if obj, err = c.obj(); err != nil {
				return res, err
			}
			return votes.Anneal(c.n, obj, c.cfg)
		}
		start := time.Now()
		res, err := anneal()
		if err != nil {
			return file, err
		}
		elapsed := time.Since(start).Seconds()
		res2, err := anneal()
		if err != nil {
			return file, err
		}
		uni, err := obj.Eval(quorum.UniformVotes(c.n))
		if err != nil {
			return file, err
		}
		deterministic := res.Value == res2.Value &&
			res.TrajectoryHash == res2.TrajectoryHash &&
			res.Evaluations == res2.Evaluations &&
			slices.Equal(res.Votes, res2.Votes)
		allCertified := res.Accepted == res.CertifiedAccepts && res.Cert.Intersects()

		for _, r := range []gate.Row{
			{Name: "sites", Value: float64(c.n), Unit: "count"},
			{Name: "value", Value: res.Value, Better: "equal", RelTol: 1e-9,
				Note: fmt.Sprintf("%s objective, votes %v, qr %d, qw %d, trajectory %016x",
					obj.Name(), res.Votes, res.Assignment.QR, res.Assignment.QW, res.TrajectoryHash)},
			{Name: "uniform_value", Value: uni.Value},
			{Name: "gain_over_uniform", Value: res.Value - uni.Value, Min: gate.Bound(0)},
			{Name: "evaluations", Value: float64(res.Evaluations), Unit: "count"},
			{Name: "accepted", Value: float64(res.Accepted), Unit: "count"},
			{Name: "all_certified", Value: gate.Bool(allCertified), Min: gate.Bound(1)},
			{Name: "deterministic", Value: gate.Bool(deterministic), Min: gate.Bound(1)},
		} {
			r.Name = c.name + "." + r.Name
			file.Rows = append(file.Rows, r)
		}
		fmt.Printf("%-20s n=%-4d %-8s value %.6f (uniform %.6f)  %d evals  %.2fs  certified=%v deterministic=%v\n",
			c.name, c.n, obj.Name(), res.Value, uni.Value, res.Evaluations, elapsed, allCertified, deterministic)
	}
	return file, nil
}
