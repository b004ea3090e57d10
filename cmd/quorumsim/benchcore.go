package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"quorumkit/internal/core"
	"quorumkit/internal/dist"
	"quorumkit/internal/gate"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
	"quorumkit/internal/sim"
)

// benchCore measures the large-N study engine's two hot kernels and the
// family-sweep speedup at the paper-style scale of 1001 sites (-suite
// core). Steady-state access must stay allocation-free, the sweep must
// stay ≥ 5× faster than the per-assignment reference (and bit-identical to
// it), and neither kernel's calibrated ratio may exceed its baseline by
// more than 10%. The ratio normalizes the wall-clock figure by a per-host
// RNG calibration loop, so the committed baseline can gate regressions
// across machines of different speeds: a kernel that slows down relative
// to the same host's raw arithmetic throughput has genuinely regressed.
func benchCore(seed uint64) (gate.File, error) {
	const sites = 1001

	// Calibration: the host's raw sequential throughput, measured as the
	// cost of one xoshiro draw. Kernel ratios are in units of this.
	file := gate.File{Suite: "core", Seed: seed, CalibrationNs: calibrateRNG(seed)}

	kernel := func(name string, ns, allocs float64) {
		fmt.Printf("%-22s %10.1f ns/op  %6.1f allocs/op  ratio %.2f\n", name, ns, allocs, ns/file.CalibrationNs)
		file.Rows = append(file.Rows,
			gate.Row{Name: name + ".ns_per_op", Value: ns, Unit: "ns"},
			gate.Row{Name: name + ".allocs_per_op", Value: allocs, Unit: "1/op", Max: gate.Bound(0)},
			gate.Row{Name: name + ".ratio", Value: ns / file.CalibrationNs, Unit: "ratio", Better: "lower", RelTol: 0.10})
	}
	ns, allocs := benchAssignmentKernel(sites, seed)
	kernel("assignment_kernel", ns, allocs)
	ns, allocs = benchSteadyStateAccess(sites, seed)
	kernel("steady_state_access", ns, allocs)

	speedup, bitEqual, err := benchSweepSpeedup(sites, seed)
	if err != nil {
		return file, err
	}
	fmt.Printf("%-22s %10.1f×          bit-identical: %v\n", "sweep_speedup", speedup, bitEqual)
	file.Rows = append(file.Rows,
		gate.Row{Name: "sweep.speedup_x", Value: speedup, Unit: "x", Min: gate.Bound(5)},
		gate.Row{Name: "sweep.bit_identical", Value: gate.Bool(bitEqual), Min: gate.Bound(1)})
	return file, nil
}

// calibrateRNG returns the best-of-3 cost of one RNG draw in nanoseconds.
func calibrateRNG(seed uint64) float64 {
	const draws = 20_000_000
	r := rng.New(seed)
	var sink uint64
	bestNs := 0.0
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := 0; i < draws; i++ {
			sink ^= r.Uint64()
		}
		ns := float64(time.Since(start).Nanoseconds()) / draws
		if bestNs == 0 || ns < bestNs {
			bestNs = ns
		}
	}
	_ = sink
	return bestNs
}

// benchAssignmentKernel times one full-family availability curve at T
// votes — the O(T) suffix-sum kernel the optimizer and the sweep share —
// and counts its steady-state heap allocations.
func benchAssignmentKernel(T int, seed uint64) (nsPerOp, allocsPerOp float64) {
	r := rng.New(seed)
	read, write := randomPMFInto(r, T), randomPMFInto(r, T)
	dst := make([]float64, T/2)

	const ops = 2_000
	warm := func() {
		for i := 0; i < ops; i++ {
			dst = core.AvailabilityCurveInto(0.75, read, write, dst)
		}
	}
	warm()
	allocsPerOp = measureAllocs(ops, warm)
	bestNs := 0.0
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		warm()
		ns := float64(time.Since(start).Nanoseconds()) / ops
		if bestNs == 0 || ns < bestNs {
			bestNs = ns
		}
	}
	return bestNs, allocsPerOp
}

// benchSteadyStateAccess times one access on a warmed 1001-site ring
// simulator and counts its heap allocations (contract: exactly zero).
func benchSteadyStateAccess(sites int, seed uint64) (nsPerOp, allocsPerOp float64) {
	g := graph.Ring(sites)
	s := sim.New(g, nil, sim.PaperParams(), seed)
	T := s.State().TotalVotes()
	s.SetProtocol(sim.StaticProtocol{Assignment: quorum.Assignment{QR: T/2 + 1, QW: T/2 + 1}}, 0.75)
	s.RunAccesses(20_000) // reach steady state

	const ops = 200_000
	allocsPerOp = measureAllocs(ops, func() { s.RunAccesses(ops) })
	bestNs := 0.0
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		s.RunAccesses(ops)
		ns := float64(time.Since(start).Nanoseconds()) / ops
		if bestNs == 0 || ns < bestNs {
			bestNs = ns
		}
	}
	return bestNs, allocsPerOp
}

// benchSweepSpeedup runs the paper-style 1001-site family sweep through
// the single-trajectory engine and through the seed per-assignment
// reference, returning the wall-clock ratio and whether the two produced
// bit-identical measurements.
func benchSweepSpeedup(sites int, seed uint64) (speedup float64, bitEqual bool, err error) {
	g := graph.Ring(sites)
	cfg := sim.StudyConfig{
		Warmup: 200, BatchAccesses: 1_000,
		MinBatches: 2, MaxBatches: 2, CIHalfWidth: 0.005, Seed: seed,
	}
	const alpha = 0.75

	start := time.Now()
	fast, err := sim.Sweep(g, nil, sim.PaperParams(), alpha, cfg)
	if err != nil {
		return 0, false, err
	}
	fastSec := time.Since(start).Seconds()

	start = time.Now()
	ref, err := sim.SweepReference(g, nil, sim.PaperParams(), alpha, cfg)
	if err != nil {
		return 0, false, err
	}
	refSec := time.Since(start).Seconds()

	return refSec / fastSec, reflect.DeepEqual(fast, ref), nil
}

// measureAllocs returns heap allocations per op of one run of f(ops).
func measureAllocs(ops int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// randomPMFInto draws a normalized density over vote totals 0..T.
func randomPMFInto(r *rng.Source, T int) dist.PMF {
	p := make(dist.PMF, T+1)
	sum := 0.0
	for i := range p {
		p[i] = r.Float64()
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}
