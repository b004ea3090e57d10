package main

// The weights suite: certified annealing runs at representative scales,
// written as BENCH_weights.json and gated against the committed baseline in
// CI (internal/gate, DESIGN §19). The rows assert the search's quality
// contract, not wall-clock alone: every accepted candidate carried an
// intersection certificate, the weighted result never fell below the
// uniform baseline, an in-process rerun with the same seed reproduced the
// result bit-for-bit, and the objective values match the committed baseline
// to 1e-9 relative (values are deterministic across machines up to last-ulp
// differences in math.Exp; the trajectory hash rides in the value row's
// note for forensics but is only compared within one host's double run).

import (
	"fmt"
	"os"
	"slices"
	"time"

	"quorumkit/internal/gate"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/votes"
)

// weightsCase is one benchmark scenario: a builder for the objective (fresh
// per run — objectives reuse internal buffers) and the search configuration.
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
			name: "tiered-12-capacity",
			n:    12,
			obj:  func() (votes.Objective, error) { return capacityObjective(12), nil },
			cfg:  votes.SearchConfig{MaxVotesPerSite: 3, Seed: seed, Steps: 80, Restarts: 1},
		},
	}
}

// runBenchWeights executes every weights case twice (the determinism
// check), emits the suite's rows, and hands them to the one gate: written
// to path and checked against base when given.
func runBenchWeights(path, base string, seed uint64) int {
	file := gate.File{Suite: "weights", Seed: seed}
	totalSec := 0.0
	for _, c := range weightsCases(seed) {
		obj, err := c.obj()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		uni, err := obj.Eval(quorum.UniformVotes(c.n))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		start := time.Now()
		res, err := votes.Anneal(c.n, obj, c.cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		elapsed := time.Since(start).Seconds()
		totalSec += elapsed

		// Rerun on a FRESH objective: same seed must reproduce the entire
		// SearchResult, trajectory hash included.
		obj2, err := c.obj()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		res2, err := votes.Anneal(c.n, obj2, c.cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
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
			{Name: "elapsed_sec", Value: elapsed, Unit: "s"},
		} {
			r.Name = c.name + "." + r.Name
			file.Rows = append(file.Rows, r)
		}
		fmt.Printf("%-20s n=%-4d %-8s value %.6f (uniform %.6f)  %d evals  %.2fs  certified=%v deterministic=%v\n",
			c.name, c.n, obj.Name(), res.Value, uni.Value, res.Evaluations, elapsed, allCertified, deterministic)
	}
	file.Rows = append(file.Rows, gate.Row{Name: "total.elapsed_sec", Value: totalSec, Unit: "s", Max: gate.Bound(60)})
	return gate.Finish(file, path, base)
}
