// Command voteopt optimizes vote assignments jointly with quorum
// assignments — the companion problem of the paper's reference [7].
//
// Every search scores candidates on one engine: the topology's failure
// configurations are reduced once to the components they induce, and each
// candidate weight vector merely re-prices those. A topology with
// n+m ≤ dist.ExactLimit (24) sites and links has every configuration
// enumerated, so its values are exact, as in the literature this
// reproduces; -scenarios is then unused. A larger one — the annealer is
// comfortable into the hundreds of sites — is scored against a frozen
// common-random-numbers sample of -scenarios configurations, so candidate
// comparisons are noise-free and the whole search is deterministic in -seed.
//
// Every candidate the search engines accept carries an O(n log n) pigeonhole
// certificate of read/write quorum intersection; the engines never accept an
// uncertified system.
//
// Usage:
//
//	voteopt -net star -n 6 -p 0.9 -r 0.7 -alpha 0.5 -max 3
//	voteopt -net path -n 5 -search exhaustive
//	voteopt -net star -n 100 -search anneal -scenarios 1000 -steps 800
//	voteopt -objective capacity -n 12 -search anneal
//
// The gated annealing runs behind BENCH_weights.json are quorumsim's
// weights suite (`quorumsim suite weights`).
package main

import (
	"flag"
	"fmt"
	"os"

	"quorumkit/internal/dist"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/strategy"
	"quorumkit/internal/votes"
)

func main() {
	var (
		net       = flag.String("net", "star", "topology: star | path | ring | complete | grid2x3")
		n         = flag.Int("n", 6, "number of sites")
		p         = flag.Float64("p", 0.9, "site reliability")
		r         = flag.Float64("r", 0.7, "link reliability")
		alpha     = flag.Float64("alpha", 0.5, "fraction of accesses that are reads")
		maxV      = flag.Int("max", 3, "maximum votes per site")
		search    = flag.String("search", "hillclimb", "search: hillclimb | exhaustive | anneal")
		objective = flag.String("objective", "avail", "objective: avail | capacity")
		seed      = flag.Uint64("seed", 1, "search and scenario seed")
		scenarios = flag.Int("scenarios", 1000, "failure scenarios for the large-n availability objective")
		steps     = flag.Int("steps", 0, "annealing steps per restart (0 = default)")
		restarts  = flag.Int("restarts", 0, "annealing restarts (0 = default)")
		budget    = flag.Int("budget", 0, "total vote budget (0 = n·max)")
	)
	flag.Parse()

	// A name nothing builds, or a number no constructor or search accepts,
	// is a usage error: one line, the usage, exit 2, nothing run.
	topo, known := nets[*net]
	var g *graph.Graph
	if known && *n >= topo.least {
		g = topo.build(*n)
	}
	for _, c := range []struct {
		bad bool
		msg string
	}{
		{!known, fmt.Sprintf("unknown -net %q", *net)},
		{known && g == nil, fmt.Sprintf("-n %d: -net %s needs at least %d sites", *n, *net, topo.least)},
		{*objective != "avail" && *objective != "capacity", fmt.Sprintf("unknown -objective %q", *objective)},
		{*search != "hillclimb" && *search != "exhaustive" && *search != "anneal", fmt.Sprintf("unknown -search %q", *search)},
		{!(*p >= 0 && *p <= 1), fmt.Sprintf("-p %g out of [0, 1]", *p)}, // also refuses NaN
		{!(*r >= 0 && *r <= 1), fmt.Sprintf("-r %g out of [0, 1]", *r)},
		{!(*alpha >= 0 && *alpha <= 1), fmt.Sprintf("-alpha %g out of [0, 1]", *alpha)},
		{*maxV < 1, fmt.Sprintf("-max %d: need at least 1 vote per site", *maxV)},
		{*budget < 0 || g != nil && *budget > 0 && *budget < g.N(), fmt.Sprintf("-budget %d: need 0 (n·max) or at least one vote per site", *budget)},
		{*scenarios < 1, fmt.Sprintf("-scenarios %d: need at least 1", *scenarios)},
		{*steps < 0, fmt.Sprintf("-steps %d: need 0 (default) or more", *steps)},
		{*restarts < 0, fmt.Sprintf("-restarts %d: need 0 (default) or more", *restarts)},
	} {
		if c.bad {
			fmt.Fprintln(os.Stderr, "voteopt:", c.msg)
			flag.Usage()
			os.Exit(2)
		}
	}
	nn := g.N()
	scfg := votes.SearchConfig{
		MaxVotesPerSite: *maxV,
		TotalBudget:     *budget,
		Seed:            *seed,
		Restarts:        *restarts,
		Steps:           *steps,
	}

	var obj votes.Objective
	switch *objective {
	case "avail":
		var sc *votes.Scenarios
		var err error
		if nn+g.M() <= dist.ExactLimit {
			sc, err = votes.ExactScenarios(g, *p, *r)
		} else {
			sc, err = votes.SampleScenarios(g, *p, *r, *scenarios, *seed)
		}
		fatal(1, err)
		obj, err = votes.NewAvailObjective(sc, *alpha)
		fatal(1, err)
	default:
		obj = capacityObjective(nn)
	}

	fmt.Printf("topology %s (n=%d, m=%d), p=%g, r=%g, α=%g, objective %s (%s)\n",
		*net, nn, g.M(), *p, *r, *alpha, *objective, obj.Name())

	uni, err := obj.Eval(quorum.UniformVotes(nn))
	fatal(1, err)
	fmt.Printf("uniform baseline: %v  value = %.6f\n", uni.Assignment, uni.Value)

	var res votes.SearchResult
	switch *search {
	case "hillclimb":
		res, err = votes.HillClimbObjective(nn, obj, quorum.UniformVotes(nn), scfg)
	case "exhaustive":
		res, err = votes.ExhaustiveObjective(nn, obj, scfg)
	default:
		res, err = votes.Anneal(nn, obj, scfg)
	}
	fatal(1, err)

	fmt.Printf("%s votes %v\n", *search, res.Votes)
	fmt.Printf("  %v  value = %.6f  (evaluations %d)\n", res.Assignment, res.Value, res.Evaluations)
	fmt.Printf("  certificate: q_r+q_w=%d > T=%d, 2·q_w=%d > T; survives %d read / %d write failures\n",
		res.Cert.QR+res.Cert.QW, res.Cert.T, 2*res.Cert.QW, res.Cert.ReadSurvives, res.Cert.WriteSurvives)
	if *search == "anneal" {
		fmt.Printf("  accepted %d (all certified: %v), trajectory %016x\n",
			res.Accepted, res.Accepted == res.CertifiedAccepts, res.TrajectoryHash)
	}
	if res.Value > uni.Value {
		fmt.Printf("improvement over uniform: +%.6f\n", res.Value-uni.Value)
	}
}

// fatal exits with status when err is non-nil.
func fatal(status int, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(status)
	}
}

// nets are the -net topologies by name, with the fewest sites each builds
// (grid2x3 ignores -n).
var nets = map[string]struct {
	least int
	build func(n int) *graph.Graph
}{
	"star": {2, graph.Star}, "path": {2, graph.Path}, "ring": {3, graph.Ring}, "complete": {2, graph.Complete},
	"grid2x3": {0, func(int) *graph.Graph { return graph.Grid(2, 3) }},
}

// capacityObjective builds the tiered synthetic capacity model used when no
// measured capacities are supplied: alternating fast (4000/2000 accesses per
// unit time) and slow (2000/1000) sites, a 90%-read workload. The capacity
// LP and its KKT certificate come from internal/strategy.
func capacityObjective(n int) votes.CapacityObjective {
	readCap, writeCap := make([]float64, n), make([]float64, n)
	for i := range readCap {
		readCap[i], writeCap[i] = 4000-2000*float64(i%2), 2000-1000*float64(i%2)
	}
	return votes.CapacityObjective{ReadCap: readCap, WriteCap: writeCap, Dist: strategy.SingleFr(0.9)}
}
