package main

import (
	"fmt"
	"math"
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

	_, detCap, err := strategy.BestDeterministic(sys, d, strategy.Options{})
	if err != nil {
		return file, err
	}
	res1, err := strategy.OptimizeResilientCapacity(sys, d, 1, strategy.Options{})
	if err != nil {
		return file, err
	}
	certified = certified && strategy.CertifyGlobalCapacity(sys, d, 1, res1, 1e-9) == nil
	lat, err := strategy.OptimizeLatency(sys, d, strategy.CaseStudyLoadLimit(), strategy.Options{})
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
	ld, err := strategy.NewFrDist(map[float64]float64{0.8: 2, 0.5: 1})
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
