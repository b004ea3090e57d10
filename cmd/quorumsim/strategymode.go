package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"quorumkit/internal/gate"
	"quorumkit/internal/graph"
	"quorumkit/internal/sim"
	"quorumkit/internal/strategy"
)

// benchStrategy solves the strategy suite: the strategy optimizer's
// headline numbers — case-study optimality and randomization gain,
// LP-vs-simulator capacity agreement, and the large-N column-generation
// solve. Every certificate must validate, the randomized case-study optimum
// must strictly beat the best deterministic assignment, simulated capacity
// must agree with the LP within 2%, and the large-N solve must certify
// within its target gap in no more generation rounds and simplex pivots
// than the baseline's. Solve times are printed, not written: the rows
// (pivot, round and column counts included) are pure in the seed, and
// solve time is bench/'s strategy.solve_*_ms.
func benchStrategy(seed uint64) (gate.File, error) {
	file := gate.File{Suite: "strategy", Seed: seed}
	section := ""
	add := func(r gate.Row) {
		r.Name = section + "." + r.Name
		file.Rows = append(file.Rows, r)
	}
	info := func(name string, v float64, unit string) { add(gate.Row{Name: name, Value: v, Unit: unit}) }

	// Case study: the paper-style 5-node system under the nonuniform
	// read-fraction distribution, all three objectives.
	sys := strategy.CaseStudySystem()
	d := strategy.CaseStudyFrDist()
	start := time.Now()
	capRes, err := strategy.OptimizeCapacity(sys, d, strategy.Options{})
	if err != nil {
		return file, err
	}
	solveMs := float64(time.Since(start).Microseconds()) / 1000
	certified := strategy.CertifyGlobalCapacity(sys, d, 0, capRes, 1e-9) == nil

	_, detCap, err := strategy.BestDeterministic(sys, d)
	if err != nil {
		return file, err
	}
	res1, err := strategy.OptimizeResilientCapacity(sys, d, 1, strategy.Options{})
	if err != nil {
		return file, err
	}
	certified = certified && strategy.CertifyGlobalCapacity(sys, d, 1, res1, 1e-9) == nil
	lat, err := strategy.OptimizeLatency(sys, d, strategy.CaseStudyLoadLimit())
	if err != nil {
		return file, err
	}
	certified = certified && lat.Certify(1e-9) == nil

	section = "case_study"
	add(gate.Row{Name: "capacity", Value: capRes.Capacity, Unit: "ops/s", Better: "higher", RelTol: 0.001})
	info("deterministic_capacity", detCap, "ops/s")
	add(gate.Row{Name: "randomization_gain_x", Value: capRes.Capacity / detCap, Unit: "x", Min: gate.Bound(1.01)})
	info("resilient_capacity_f1", res1.Capacity, "ops/s")
	info("latency_value", lat.Value, "")
	add(gate.Row{Name: "certified", Value: gate.Bool(certified), Min: gate.Bound(1)})
	fmt.Printf("case study: capacity %.1f vs deterministic %.1f (gain %.2f×), certified=%v, %.1f ms\n",
		capRes.Capacity, detCap, capRes.Capacity/detCap, certified, solveMs)

	// Simulator agreement: measure the optimal strategy's empirical
	// capacity on a failure-free network and compare to the LP closed form.
	const fr = 0.7
	frRes, err := strategy.OptimizeCapacity(sys, strategy.SingleFr(fr), strategy.Options{})
	if err != nil {
		return file, err
	}
	m, err := sim.MeasureStrategyLoad(graph.Complete(5), sys,
		sim.Params{AccessMean: 1, FailMean: 1e12, RepairMean: 1e-6},
		frRes.Strategy, fr, sim.StudyConfig{
			Warmup: 1_000, BatchAccesses: 200_000,
			MinBatches: 5, MaxBatches: 5, CIHalfWidth: 0.001, Seed: seed,
		})
	if err != nil {
		return file, err
	}
	relErr := math.Abs(m.Capacity.Mean-frRes.Capacity) / frRes.Capacity
	section = "sim_agreement"
	info("fr", fr, "ratio")
	info("lp_capacity", frRes.Capacity, "ops/s")
	info("sim_capacity", m.Capacity.Mean, "ops/s")
	add(gate.Row{Name: "rel_err", Value: relErr, Unit: "ratio", Max: gate.Bound(0.02)})
	info("batches", float64(m.Batches), "count")
	fmt.Printf("sim agreement: LP %.1f vs sim %.1f (rel err %.4f) over %d batches\n",
		frRes.Capacity, m.Capacity.Mean, relErr, m.Batches)

	// Large N: a system far past the enumeration cutoff, solved by column
	// generation to a certified bound gap. At 151 sites the solve takes
	// about 1.5 s of single-core time on a 2-vCPU x86-64 container (190
	// rounds, 37,119 pivots). The rounds and pivots rows are gated lower:
	// both are exact counts, pure in the seed, so any growth is the solver
	// doing more work.
	const sites = 151
	const targetGap = 0.05
	ld, err := heteroFrDist()
	if err != nil {
		return file, err
	}
	start = time.Now()
	lres, err := strategy.OptimizeCapacity(strategy.HeteroSystem(sites, seed), ld, strategy.Options{TargetGap: targetGap})
	if err != nil {
		return file, err
	}
	solveSec := time.Since(start).Seconds()
	gap := (lres.Value - lres.Bound) / lres.Value
	largeCertified := lres.Certify(1e-6) == nil
	section = "large_n"
	info("sites", sites, "count")
	info("target_gap", targetGap, "ratio")
	info("value", lres.Value, "")
	info("bound", lres.Bound, "")
	add(gate.Row{Name: "gap", Value: gap, Unit: "ratio", Max: gate.Bound(targetGap + 1e-9)})
	add(gate.Row{Name: "rounds", Value: float64(lres.Rounds), Unit: "count", Better: "lower"})
	info("generated", float64(lres.Generated), "count")
	add(gate.Row{Name: "pivots", Value: float64(lres.Sol.Pivots), Unit: "count", Better: "lower"})
	add(gate.Row{Name: "certified", Value: gate.Bool(largeCertified), Min: gate.Bound(1)})
	fmt.Printf("large N: %d sites, gap %.4f (target %.2f), %d rounds, %d columns, certified=%v, %.1f s\n",
		sites, gap, targetGap, lres.Rounds, lres.Generated, largeCertified, solveSec)
	return file, nil
}

// heteroFrDist is the read-fraction mix solved over a seeded HeteroSystem:
// two parts 80% reads to one part 50%.
func heteroFrDist() (strategy.FrDist, error) {
	return strategy.NewFrDist(map[float64]float64{0.8: 2, 0.5: 1})
}

func bindStrategy(fs *flagSet) func(env) int {
	objective := fs.oneOf("objective", "capacity", "objective", "capacity", "resilient", "latency")
	sites := fs.Int("sites", 0, "sites in a seeded heterogeneous system (0 = the built-in case study)")
	fs.check(func() bool { return *sites == 0 || *sites >= 3 }, "-sites must be 0 (the case study) or at least 3")
	f := fs.intMin("f", 1, 0, "tolerated site failures for -objective resilient")
	loadLimit := fs.Float64("loadlimit", 0, "per-site load ceiling for -objective latency (0 = case-study limit)")
	fs.check(func() bool { return *loadLimit >= 0 }, "-loadlimit must be at least 0")
	frs := fs.String("frs", "", "read-fraction distribution as fr:weight pairs, e.g. 0.7:100,0.5:50 (empty = case-study distribution)")
	gap := fs.fraction("gap", 0, "stop column generation at this certified bound gap (0 = solve to priced optimality)")
	asJSON := fs.Bool("json", false, "print the canonical strategy as JSON")
	return func(e env) int {
		return runStrategy(*objective, *sites, *f, *loadLimit, *frs, *gap, e.seed, *asJSON)
	}
}

// runStrategy solves for an optimal randomized quorum strategy — capacity,
// f-resilient capacity, or expected latency under a load limit — over the
// built-in case-study system or a seeded heterogeneous system of n sites,
// certifies the result, and prints the strategy (optionally as canonical
// JSON).
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
	default:
		if loadLimit == 0 {
			loadLimit = strategy.CaseStudyLoadLimit()
		}
		res, err = strategy.OptimizeLatency(sys, d, loadLimit)
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
		_, detCap, derr := strategy.BestDeterministic(sys, d)
		if derr == nil {
			fmt.Printf("best deterministic assignment: capacity %.3f (randomization gain %.2f×)\n",
				detCap, res.Capacity/detCap)
		}
	}
	return 0
}

// strategyError is the structured failure object `strategy` emits on
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
// system of n sites; a non-empty frSpec replaces the distribution.
func strategySystem(n int, frSpec string, seed uint64) (strategy.System, strategy.FrDist, error) {
	sys, d := strategy.CaseStudySystem(), strategy.CaseStudyFrDist()
	var err error
	if n > 0 {
		sys = strategy.HeteroSystem(n, seed)
		if d, err = heteroFrDist(); err != nil {
			return sys, d, err
		}
	}
	if frSpec != "" {
		d, err = parseFrDist(frSpec)
	}
	return sys, d, err
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
