package main

// The votes command optimizes vote assignments jointly with quorum
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

import (
	"fmt"
	"os"

	"quorumkit/internal/dist"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/strategy"
	"quorumkit/internal/votes"
)

// graphs are the -net topologies votes and check build (grid2x3 ignores
// -sites).
var graphs = []topology[func(n int) *graph.Graph]{
	{"star", 2, graph.Star}, {"path", 2, graph.Path}, {"ring", 3, graph.Ring}, {"complete", 2, graph.Complete},
	{"grid2x3", 0, func(int) *graph.Graph { return graph.Grid(2, 3) }},
}

func bindVotes(fs *flagSet) func(env) int {
	sites, net := netFlags(fs, graphs, "star", 6, "number of sites")
	p := fs.fraction("p", 0.9, "site reliability")
	r := fs.fraction("r", 0.7, "link reliability")
	alpha := fs.fraction("alpha", 0.5, "fraction of accesses that are reads")
	maxV := fs.intMin("max", 3, 1, "maximum votes per site")
	search := fs.oneOf("search", "hillclimb", "search", "hillclimb", "exhaustive", "anneal")
	objective := fs.oneOf("objective", "avail", "objective", "avail", "capacity")
	scenarios := fs.intMin("scenarios", 1000, 1, "failure scenarios for the large-n availability objective")
	steps := fs.intMin("steps", 0, 0, "annealing steps per restart (0 = default)")
	restarts := fs.intMin("restarts", 0, 0, "annealing restarts (0 = default)")
	budget := fs.Int("budget", 0, "total vote budget (0 = n·max)")
	fs.check(func() bool { return *budget == 0 || *budget >= net().build(*sites).N() },
		"-budget must be 0 (n·max) or at least one vote per site")
	return func(e env) int {
		t := net()
		g := t.build(*sites)
		cfg := votes.SearchConfig{
			MaxVotesPerSite: *maxV, TotalBudget: *budget, Seed: e.seed,
			Restarts: *restarts, Steps: *steps,
		}
		if err := runVotes(g, t.name, *p, *r, *alpha, *search, *objective, *scenarios, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
}

// runVotes searches vote assignments on g for the objective and prints the
// uniform baseline, the result and its intersection certificate.
func runVotes(g *graph.Graph, net string, p, r, alpha float64, search, objective string, scenarios int, cfg votes.SearchConfig) error {
	nn := g.N()
	var obj votes.Objective = capacityObjective(nn)
	if objective == "avail" {
		var sc *votes.Scenarios
		var err error
		if nn+g.M() <= dist.ExactLimit {
			sc, err = votes.ExactScenarios(g, p, r)
		} else {
			sc, err = votes.SampleScenarios(g, p, r, scenarios, cfg.Seed)
		}
		if err != nil {
			return err
		}
		if obj, err = votes.NewAvailObjective(sc, alpha); err != nil {
			return err
		}
	}

	fmt.Printf("topology %s (n=%d, m=%d), p=%g, r=%g, α=%g, objective %s (%s)\n",
		net, nn, g.M(), p, r, alpha, objective, obj.Name())

	uni, err := obj.Eval(quorum.UniformVotes(nn))
	if err != nil {
		return err
	}
	fmt.Printf("uniform baseline: %v  value = %.6f\n", uni.Assignment, uni.Value)

	var res votes.SearchResult
	switch search {
	case "hillclimb":
		res, err = votes.HillClimbObjective(nn, obj, quorum.UniformVotes(nn), cfg)
	case "exhaustive":
		res, err = votes.ExhaustiveObjective(nn, obj, cfg)
	default:
		res, err = votes.Anneal(nn, obj, cfg)
	}
	if err != nil {
		return err
	}

	fmt.Printf("%s votes %v\n", search, res.Votes)
	fmt.Printf("  %v  value = %.6f  (evaluations %d)\n", res.Assignment, res.Value, res.Evaluations)
	fmt.Printf("  certificate: q_r+q_w=%d > T=%d, 2·q_w=%d > T; survives %d read / %d write failures\n",
		res.Cert.QR+res.Cert.QW, res.Cert.T, 2*res.Cert.QW, res.Cert.ReadSurvives, res.Cert.WriteSurvives)
	if search == "anneal" {
		fmt.Printf("  accepted %d (all certified: %v), trajectory %016x\n",
			res.Accepted, res.Accepted == res.CertifiedAccepts, res.TrajectoryHash)
	}
	if res.Value > uni.Value {
		fmt.Printf("improvement over uniform: +%.6f\n", res.Value-uni.Value)
	}
	return nil
}

// capacityObjective is the tiered synthetic capacity model scored when no
// measured capacities are supplied: alternating fast (4000/2000 accesses
// per unit time) and slow (2000/1000) sites, a 90%-read workload. The
// capacity LP and its KKT certificate come from internal/strategy.
func capacityObjective(n int) votes.CapacityObjective {
	readCap, writeCap := make([]float64, n), make([]float64, n)
	for i := range readCap {
		readCap[i], writeCap[i] = 4000-2000*float64(i%2), 2000-1000*float64(i%2)
	}
	return votes.CapacityObjective{ReadCap: readCap, WriteCap: writeCap, Dist: strategy.SingleFr(0.9)}
}
