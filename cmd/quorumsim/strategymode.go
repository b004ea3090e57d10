package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"quorumkit/internal/graph"
	"quorumkit/internal/rng"
	"quorumkit/internal/sim"
	"quorumkit/internal/strategy"
)

// strategyBenchFile is BENCH_strategy.json: the strategy optimizer's
// headline numbers — case-study optimality and randomization gain, LP-vs-
// simulator capacity agreement, and the large-N column-generation solve —
// with enough raw figures to gate regressions. Solve times are normalized
// by the same per-host RNG calibration as BENCH_core.json so the committed
// baseline transfers across machines.
type strategyBenchFile struct {
	CalibrationNs float64 `json:"calibration_ns_per_op"`

	CaseStudy struct {
		Capacity              float64 `json:"capacity"`
		DeterministicCapacity float64 `json:"deterministic_capacity"`
		RandomizationGainX    float64 `json:"randomization_gain_x"`
		ResilientCapacity     float64 `json:"resilient_capacity_f1"`
		LatencyValue          float64 `json:"latency_value"`
		Certified             bool    `json:"certified"`
		SolveMs               float64 `json:"solve_ms"`
	} `json:"case_study"`

	SimAgreement struct {
		Fr          float64 `json:"fr"`
		LPCapacity  float64 `json:"lp_capacity"`
		SimCapacity float64 `json:"sim_capacity"`
		RelErr      float64 `json:"rel_err"`
		Batches     int     `json:"batches"`
	} `json:"sim_agreement"`

	LargeN struct {
		Sites     int     `json:"sites"`
		TargetGap float64 `json:"target_gap"`
		Value     float64 `json:"value"`
		Bound     float64 `json:"bound"`
		Gap       float64 `json:"gap"`
		Rounds    int     `json:"rounds"`
		Generated int     `json:"generated"`
		Pivots    int     `json:"pivots"`
		Certified bool    `json:"certified"`
		SolveSec  float64 `json:"solve_sec"`
		Ratio     float64 `json:"ratio"`
	} `json:"large_n"`
}

// runBenchStrategy solves the strategy suite, writes the results to path,
// and — when base names a committed BENCH_strategy.json — gates against
// it: every certificate must validate, the randomized case-study optimum
// must strictly beat the best deterministic assignment, simulated capacity
// must agree with the LP within 2%, the large-N solve must certify
// within its target gap, and its calibrated solve-time ratio may not
// exceed the baseline's by more than 50%.
func runBenchStrategy(path, base string, seed uint64) int {
	var file strategyBenchFile
	file.CalibrationNs = calibrateRNG(seed)

	// Case study: the paper-style 5-node system under the nonuniform
	// read-fraction distribution, all three objectives.
	sys := strategy.CaseStudySystem()
	d := strategy.CaseStudyFrDist()
	start := time.Now()
	capRes, err := strategy.OptimizeCapacity(sys, d, strategy.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	file.CaseStudy.SolveMs = float64(time.Since(start).Microseconds()) / 1000
	certified := strategy.CertifyGlobalCapacity(sys, d, 0, capRes, 1e-9) == nil

	_, detCap, err := strategy.BestDeterministic(sys, d, strategy.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	res1, err := strategy.OptimizeResilientCapacity(sys, d, 1, strategy.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	certified = certified && strategy.CertifyGlobalCapacity(sys, d, 1, res1, 1e-9) == nil
	lat, err := strategy.OptimizeLatency(sys, d, strategy.CaseStudyLoadLimit(), strategy.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	certified = certified && lat.Certify(1e-9) == nil

	file.CaseStudy.Capacity = capRes.Capacity
	file.CaseStudy.DeterministicCapacity = detCap
	file.CaseStudy.RandomizationGainX = capRes.Capacity / detCap
	file.CaseStudy.ResilientCapacity = res1.Capacity
	file.CaseStudy.LatencyValue = lat.Value
	file.CaseStudy.Certified = certified

	// Simulator agreement: measure the optimal strategy's empirical
	// capacity on a failure-free network and compare to the LP closed form.
	const fr = 0.7
	frRes, err := strategy.OptimizeCapacity(sys, strategy.SingleFr(fr), strategy.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	m, err := sim.MeasureStrategyLoad(graph.Complete(5), sys,
		sim.Params{AccessMean: 1, FailMean: 1e12, RepairMean: 1e-6},
		frRes.Strategy, fr, sim.StudyConfig{
			Warmup: 1_000, BatchAccesses: 200_000,
			MinBatches: 5, MaxBatches: 5, CIHalfWidth: 0.001, Seed: seed,
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	file.SimAgreement.Fr = fr
	file.SimAgreement.LPCapacity = frRes.Capacity
	file.SimAgreement.SimCapacity = m.Capacity.Mean
	file.SimAgreement.RelErr = math.Abs(m.Capacity.Mean-frRes.Capacity) / frRes.Capacity
	file.SimAgreement.Batches = m.Batches

	// Large N: a system far past the enumeration cutoff, solved by column
	// generation to a certified bound gap. 151 sites keeps the solve
	// around ten seconds of single-core time (the gate runs per push); the
	// same machinery runs at 1000+ sites via `quorumopt -strategy -stratn
	// 1001 -gap 0.05`, but closing the gap there takes many minutes of
	// pivoting over the nJ load rows — dual stabilization is the known fix
	// and a roadmap item.
	const sites = 151
	const targetGap = 0.05
	large := heteroStrategySystem(sites, seed)
	ld, err := strategy.NewFrDist(map[float64]float64{0.8: 2, 0.5: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	start = time.Now()
	lres, err := strategy.OptimizeCapacity(large, ld, strategy.Options{TargetGap: targetGap})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	file.LargeN.SolveSec = time.Since(start).Seconds()
	file.LargeN.Sites = sites
	file.LargeN.TargetGap = targetGap
	file.LargeN.Value = lres.Value
	file.LargeN.Bound = lres.Bound
	file.LargeN.Gap = (lres.Value - lres.Bound) / lres.Value
	file.LargeN.Rounds = lres.Rounds
	file.LargeN.Generated = lres.Generated
	file.LargeN.Pivots = lres.Sol.Pivots
	file.LargeN.Certified = lres.Certify(1e-6) == nil
	file.LargeN.Ratio = file.LargeN.SolveSec * 1e9 / file.CalibrationNs

	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	fmt.Printf("case study: capacity %.1f vs deterministic %.1f (gain %.2f×), certified=%v, %.1f ms\n",
		file.CaseStudy.Capacity, file.CaseStudy.DeterministicCapacity,
		file.CaseStudy.RandomizationGainX, file.CaseStudy.Certified, file.CaseStudy.SolveMs)
	fmt.Printf("sim agreement: LP %.1f vs sim %.1f (rel err %.4f) over %d batches\n",
		file.SimAgreement.LPCapacity, file.SimAgreement.SimCapacity,
		file.SimAgreement.RelErr, file.SimAgreement.Batches)
	fmt.Printf("large N: %d sites, gap %.4f (target %.2f), %d rounds, %d columns, certified=%v, %.1f s\n",
		file.LargeN.Sites, file.LargeN.Gap, targetGap, file.LargeN.Rounds,
		file.LargeN.Generated, file.LargeN.Certified, file.LargeN.SolveSec)

	if base == "" {
		return 0
	}
	return gateBenchStrategy(file, base)
}

// gateBenchStrategy enforces the strategy acceptance criteria against the
// committed baseline.
func gateBenchStrategy(cur strategyBenchFile, base string) int {
	raw, err := os.ReadFile(base)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var b strategyBenchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		fmt.Fprintf(os.Stderr, "parsing baseline %s: %v\n", base, err)
		return 2
	}
	status := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "BENCH GATE FAIL: "+format+"\n", args...)
		status = 1
	}
	if !cur.CaseStudy.Certified {
		fail("case-study certificates did not validate")
	}
	if cur.CaseStudy.RandomizationGainX <= 1.01 {
		fail("randomized capacity gain %.3f× does not strictly beat deterministic",
			cur.CaseStudy.RandomizationGainX)
	}
	if cur.CaseStudy.Capacity < b.CaseStudy.Capacity*0.999 {
		fail("case-study capacity %.3f below baseline %.3f", cur.CaseStudy.Capacity, b.CaseStudy.Capacity)
	}
	if cur.SimAgreement.RelErr > 0.02 {
		fail("sim capacity disagrees with LP by %.4f (limit 0.02)", cur.SimAgreement.RelErr)
	}
	if !cur.LargeN.Certified {
		fail("large-N certificate did not validate")
	}
	if cur.LargeN.Gap > cur.LargeN.TargetGap+1e-9 {
		fail("large-N bound gap %.4f exceeds target %.2f", cur.LargeN.Gap, cur.LargeN.TargetGap)
	}
	if b.LargeN.Ratio > 0 && cur.LargeN.Ratio > b.LargeN.Ratio*1.5 {
		fail("large-N calibrated solve ratio %.3g exceeds baseline %.3g by >50%%",
			cur.LargeN.Ratio, b.LargeN.Ratio)
	}
	if status == 0 {
		fmt.Printf("bench gate OK against %s\n", base)
	}
	return status
}

// heteroStrategySystem draws the benchmark's n-site heterogeneous majority
// system, deterministic in the seed (mirrors `quorumopt -strategy -stratn`).
func heteroStrategySystem(n int, seed uint64) strategy.System {
	src := rng.New(seed)
	sys := strategy.System{
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
