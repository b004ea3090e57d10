package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"quorumkit/internal/strategy"
)

// runStrategy is the `quorumopt -strategy` mode: solve for an optimal
// randomized quorum strategy — capacity, f-resilient capacity, or expected
// latency under a load limit — over the built-in case-study system or a
// seeded heterogeneous system of -n sites, certify the result, and print
// the strategy (optionally as canonical JSON).
func runStrategy(objective string, n int, f int, loadLimit float64, frSpec string,
	gap float64, seed uint64, asJSON bool) int {
	sys, d, err := strategySystem(n, frSpec, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	opts := strategy.Options{TargetGap: gap}

	var res *strategy.Result
	start := time.Now()
	switch objective {
	case "capacity":
		res, err = strategy.OptimizeCapacity(sys, d, opts)
	case "resilient":
		res, err = strategy.OptimizeResilientCapacity(sys, d, f, opts)
	case "latency":
		if loadLimit <= 0 {
			loadLimit = strategy.CaseStudyLoadLimit()
		}
		res, err = strategy.OptimizeLatency(sys, d, loadLimit, opts)
	default:
		fmt.Fprintf(os.Stderr, "unknown -objective %q (capacity | resilient | latency)\n", objective)
		return 2
	}
	elapsed := time.Since(start)
	if err != nil {
		return strategyFail(objective, "solve", err)
	}
	if cerr := res.Certify(1e-6); cerr != nil {
		return strategyFail(objective, "certificate", cerr)
	}

	if asJSON {
		out, err := json.MarshalIndent(res.Strategy.Canonical(1e-12), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Println(string(out))
		return 0
	}

	fmt.Printf("objective: %s, %d sites, T=%d, q_r=%d, q_w=%d, E[f_r]=%.3f\n",
		objective, sys.N(), sys.T(), sys.QR, sys.QW, d.Mean())
	switch objective {
	case "latency":
		fmt.Printf("expected latency: %.4f  (load limit %.3g, capacity %.1f)\n",
			res.Value, loadLimit, res.Capacity)
	default:
		fmt.Printf("capacity: %.3f  (expected bottleneck load %.6g per access)\n",
			res.Capacity, res.Value)
	}
	fmt.Printf("certificate: valid (%d pivots)", res.Sol.Pivots)
	if res.PoolComplete {
		fmt.Printf("; pools enumerated completely (%d read, %d write quorums)\n",
			len(res.ReadPool), len(res.WritePool))
	} else {
		fmt.Printf("; column generation: %d rounds, %d columns, priced=%v, bound gap %.2g\n",
			res.Rounds, res.Generated, res.Priced, (res.Value-res.Bound)/res.Value)
	}
	fmt.Printf("solve time: %v\n", elapsed.Round(time.Millisecond))

	printSide := func(name string, pool []strategy.Quorum, probs []float64) {
		fmt.Printf("%s strategy (%d quorums with mass):\n", name, len(pool))
		for i, q := range pool {
			fmt.Printf("  p=%-8.4f %v\n", probs[i], q)
		}
	}
	st := res.Strategy.Canonical(1e-9)
	printSide("read", st.ReadQuorums, st.ReadProbs)
	printSide("write", st.WriteQuorums, st.WriteProbs)

	if objective == "capacity" && sys.N() <= 12 {
		_, detCap, derr := strategy.BestDeterministic(sys, d, strategy.Options{})
		if derr == nil {
			fmt.Printf("best deterministic assignment: capacity %.3f (randomization gain %.2f×)\n",
				detCap, res.Capacity/detCap)
		}
	}
	return 0
}

// strategyError is the structured failure object `-strategy` emits on
// stderr when the LP cannot produce a certified strategy, so scripted
// callers can branch on `.infeasible` instead of scraping prose.
type strategyError struct {
	Error      string `json:"error"`
	Objective  string `json:"objective"`
	Stage      string `json:"stage"` // "solve" | "certificate"
	Infeasible bool   `json:"infeasible"`
}

// strategyFail reports a solve or certification failure as one structured
// JSON object on stderr and returns the non-zero exit status. Infeasibility
// — the load limit unreachable, or no f-resilient quorum existing — is
// distinguished from numerical or certification failures.
func strategyFail(objective, stage string, err error) int {
	infeasible := errors.Is(err, strategy.ErrLoadLimitInfeasible) ||
		errors.Is(err, strategy.ErrResilienceInfeasible)
	out, jerr := json.Marshal(strategyError{
		Error: err.Error(), Objective: objective,
		Stage: stage, Infeasible: infeasible,
	})
	if jerr != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintln(os.Stderr, string(out))
	return 1
}

// strategySystem resolves the system and read-fraction distribution: the
// built-in case study for n = 0, else a seeded heterogeneous majority
// system of n sites.
func strategySystem(n int, frSpec string, seed uint64) (strategy.System, strategy.FrDist, error) {
	var sys strategy.System
	var d strategy.FrDist
	var err error
	if n == 0 {
		sys, d = strategy.CaseStudySystem(), strategy.CaseStudyFrDist()
	} else {
		if n < 3 {
			return sys, d, fmt.Errorf("-n %d: need at least 3 sites", n)
		}
		sys = strategy.HeteroSystem(n, seed)
		d, err = strategy.NewFrDist(map[float64]float64{0.8: 2, 0.5: 1})
		if err != nil {
			return sys, d, err
		}
	}
	if frSpec != "" {
		d, err = parseFrDist(frSpec)
		if err != nil {
			return sys, d, err
		}
	}
	return sys, d, nil
}

// parseFrDist parses "0.7:100,0.5:50"-style read-fraction distributions.
func parseFrDist(spec string) (strategy.FrDist, error) {
	w := map[float64]float64{}
	for _, part := range strings.Split(spec, ",") {
		fw := strings.SplitN(strings.TrimSpace(part), ":", 2)
		fr, err := strconv.ParseFloat(fw[0], 64)
		if err != nil {
			return strategy.FrDist{}, fmt.Errorf("bad -frs atom %q: %v", part, err)
		}
		weight := 1.0
		if len(fw) == 2 {
			weight, err = strconv.ParseFloat(fw[1], 64)
			if err != nil {
				return strategy.FrDist{}, fmt.Errorf("bad -frs weight %q: %v", part, err)
			}
		}
		w[fr] += weight
	}
	return strategy.NewFrDist(w)
}
