// Command quorumsim measures the availability of a quorum assignment by
// direct discrete-event simulation with the paper's batching methodology
// (§5.2): warm-up, fixed-size batches from a fresh initial state, 95%
// confidence intervals.
//
// With -chaos it instead drives the message-level protocol runtimes under
// seeded fault injection (drops, duplication, reordering, delay, coordinator
// crashes) and reports the fault counters together with the history
// checker's one-copy-serializability verdict.
//
// With -diskchaos it layers disk-fault injection under the crash-bearing
// message mix: crashed coordinators recover by replaying a damaged durable
// log — torn tails truncated and repaired, corrupt or wiped media forcing
// an amnesiac rejoin by state transfer — and the run reports recoveries,
// amnesias, rejoins, and the 1SR verdict.
//
// With -study it runs the large-N study engine: the full chords × α grid,
// each cell measured by a single-trajectory family sweep (one simulation
// per batch serving every assignment via suffix sums), fanned across a
// deterministic worker pool. -parallel trades wall-clock only — cell
// results are bit-identical for every worker count.
//
// With -churn it runs the self-healing soak: a ring under seeded site/link
// churn, serving a read-heavy workload with the adaptive reassignment
// daemon on versus off on the identical schedule, asserting one-copy
// serializability, post-churn assignment-version convergence, and an
// availability win for the daemon.
//
// With -suite it runs one of the gate suites and emits its figures as
// rows in the one BENCH_*.json schema (internal/gate, DESIGN §19): -out
// writes them, -baseline gates them against a committed file, and a
// suite's own bounds are checked either way. core measures the study
// engine's hot kernels; strategy the optimizer's case study, simulator
// agreement and large-N solve; adversary, strategy-adversity and gray
// replay the adversarial and gray-failure scenarios once per mode on the
// identical seeded stimulus, scored against the epoch oracle — daemon off
// vs on, a certified strategy frozen vs re-solved by the daemon, and
// daemon off vs miss-count vs φ-accrual detection. Every run must keep
// one-copy serializability and grant zero writes from minority partitions.
//
// Observability flags compose with every mode: -metrics writes a Prometheus
// text snapshot of the run's counters, gauges, and histograms; -trace writes
// the structured protocol event trace as JSONL; -pprof writes stdlib CPU and
// heap profiles. All three are off by default and cost nothing when off.
//
// Usage:
//
//	quorumsim -topology 2 -qr 28 -alpha 0.75
//	quorumsim -topology 0 -qr 50 -alpha 0.5 -batch 1000000 -paper
//	quorumsim -study -sites 1001 -chords 0,4 -alphas 0.75 -parallel 4
//	quorumsim -suite core -baseline BENCH_core.json
//	quorumsim -chaos -chaosmix all -ops 5000 -seed 7
//	quorumsim -diskchaos -diskmix disk-all -ops 2000 -seed 7
//	quorumsim -churn -seeds 3 -soakops 4000
//	quorumsim -weightcheck -weightsites 9 -alpha 0.75 -seed 1
//	quorumsim -suite adversary -out /tmp/adversary.json -baseline BENCH_adversary.json
//	quorumsim -churn -metrics metrics.prom -trace trace.jsonl -pprof churn
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"quorumkit/internal/cluster"
	"quorumkit/internal/faults"
	"quorumkit/internal/gate"
	"quorumkit/internal/graph"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/sim"
	"quorumkit/internal/topo"
)

func main() {
	var (
		topology = flag.Int("topology", 0, "chord count (0,1,2,4,16,256,4949)")
		qr       = flag.Int("qr", 50, "read quorum; write quorum is T−q_r+1")
		alpha    = flag.Float64("alpha", 0.75, "fraction of accesses that are reads")
		warmup   = flag.Int64("warmup", 10_000, "warm-up accesses per batch")
		batch    = flag.Int64("batch", 100_000, "accesses per batch")
		minB     = flag.Int("minbatches", 5, "minimum batches")
		maxB     = flag.Int("maxbatches", 18, "maximum batches")
		ci       = flag.Float64("ci", 0.005, "target 95% CI half-width")
		seed     = flag.Uint64("seed", 1, "base seed")
		paper    = flag.Bool("paper", false, "use the paper's full batch sizes (overrides -warmup/-batch)")
		sweepAll = flag.Bool("sweep", false, "measure every q_r in the family (one shared trajectory, suffix-summed)")

		study       = flag.Bool("study", false, "run the sharded chords × α study grid (large-N engine)")
		studyChords = flag.String("chords", "", "study: comma-separated chord counts (empty = the paper's axis)")
		studyAlphas = flag.String("alphas", "", "study: comma-separated read fractions (empty = the paper's levels)")
		parallel    = flag.Int("parallel", 0, "study: worker pool size (0 = GOMAXPROCS); results are identical for every value")

		suite    = flag.String("suite", "", "run a gate suite and check its bounds: "+suiteNames)
		out      = flag.String("out", "", "with -suite: write the suite's rows to this JSON file")
		baseline = flag.String("baseline", "", "with -suite: gate the rows against this committed BENCH_*.json (same suite, seed and steps)")
		steps    = flag.Int("steps", 0, "steps per scenario run of a regret suite or of -hedge (0 = the suite's default, which its baseline was run at)")

		chaos    = flag.Bool("chaos", false, "run the chaos harness against the protocol runtimes instead")
		chaosMix = flag.String("chaosmix", "all", "fault mix name, or 'all' (one of: "+strings.Join(faults.Names(), " ")+")")
		ops      = flag.Int("ops", 2000, "scheduled operations per chaos run")
		nodes    = flag.Int("nodes", 7, "sites in the chaos cluster (complete graph)")
		async    = flag.Bool("async", false, "use the concurrent runtime for the chaos run")

		diskChaos = flag.Bool("diskchaos", false, "run the chaos harness with disk-fault injection under the crash mix")
		diskMix   = flag.String("diskmix", "all", "disk fault mix name, or 'all' (one of: "+strings.Join(faults.DiskNames(), " ")+")")

		hedge = flag.Bool("hedge", false, "run the hedged-read demo: slow-replica scenario unhedged vs hedged, printing the p50/p99 read-latency shift")

		weightCheck = flag.Bool("weightcheck", false, "anneal weighted votes on a star and crosscheck the scenario engine's predicted availability against the discrete-event simulator")
		weightSites = flag.Int("weightsites", 9, "weightcheck: star size")

		churn     = flag.Bool("churn", false, "run the churn soak: self-healing daemon on vs off under site/link churn")
		soakSeeds = flag.Int("seeds", 3, "churn soak: seeds per configuration")
		soakOps   = flag.Int("soakops", 4000, "churn soak: churn-phase operations per run")
		sites     = flag.Int("sites", 0, "ring size: study grid (0 = the paper's 101) or churn soak (0 = 9)")
		soakAlpha = flag.Float64("soakalpha", 0.9, "churn soak: read fraction")

		metricsOut  = flag.String("metrics", "", "write a Prometheus text metrics snapshot to this file after the run ('-' for stdout)")
		traceOut    = flag.String("trace", "", "write the structured protocol event trace as JSONL to this file after the run ('-' for stdout)")
		traceCap    = flag.Int("tracecap", obs.DefaultTraceCap, "trace ring capacity (oldest events overwritten beyond this)")
		pprofPrefix = flag.String("pprof", "", "write CPU and heap profiles to <prefix>.cpu.pprof and <prefix>.heap.pprof")
	)
	flag.Parse()

	sink, err := newObsSink(*metricsOut, *traceOut, *pprofPrefix, *traceCap)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var status int
	switch {
	case *suite != "":
		status = runSuite(*suite, *out, *baseline, *steps, *seed, sink)
	case *study:
		cfg := sim.StudyConfig{
			Warmup:        *warmup,
			BatchAccesses: *batch,
			MinBatches:    *minB,
			MaxBatches:    *maxB,
			CIHalfWidth:   *ci,
			Seed:          *seed,
			Obs:           sink.registry(),
		}
		status = runStudy(*sites, *parallel, *studyChords, *studyAlphas, cfg)
	case *hedge:
		status = runHedgeDemo(firstNonZero(*steps, graySteps), *seed, sink)
	case *weightCheck:
		status = runWeightCheck(*weightSites, *alpha, *seed)
	case *churn:
		status = runChurn(*soakSeeds, *soakOps, firstNonZero(*sites, 9), *soakAlpha, *seed, sink)
	case *diskChaos:
		status = runDiskChaos(*diskMix, *ops, *nodes, *seed, *async, sink)
	case *chaos:
		status = runChaos(*chaosMix, *ops, *nodes, *seed, *async, sink)
	default:
		cfg := sim.StudyConfig{
			Warmup:        *warmup,
			BatchAccesses: *batch,
			MinBatches:    *minB,
			MaxBatches:    *maxB,
			CIHalfWidth:   *ci,
			Seed:          *seed,
		}
		if *paper {
			cfg = sim.PaperStudy()
			cfg.Seed = *seed
		}
		cfg.Obs = sink.registry()
		status = runMeasure(*topology, *qr, *alpha, *sweepAll, cfg)
	}
	if err := sink.finish(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if status == 0 {
			status = 2
		}
	}
	os.Exit(status)
}

// suiteNames lists what -suite accepts.
const suiteNames = "core | strategy | adversary | strategy-adversity | gray"

// runSuite runs one gate suite and hands its rows to the one gate: written
// to out and checked against baseline when those are given. Exit status 1
// on any verdict or gate failure, 2 when the suite could not run.
func runSuite(name, out, baseline string, steps int, seed uint64, sink *obsSink) int {
	var (
		file gate.File
		err  error
	)
	ok := true
	switch name {
	case "core":
		file, err = benchCore(seed)
	case "strategy":
		file, err = benchStrategy(seed)
	default:
		var s regretSuite
		if s, err = regretSuiteNamed(name); err == nil {
			file, ok, err = s.run(name, steps, seed, sink)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	status := gate.Finish(file, out, baseline)
	if status == 0 && !ok {
		status = 1
	}
	return status
}

// runMeasure runs the direct availability measurement (the default mode):
// either one assignment or, with sweep, the full family.
func runMeasure(topology, qr int, alpha float64, sweep bool, cfg sim.StudyConfig) int {
	g := topo.Paper(topology)
	T := g.N()

	if sweep {
		fmt.Printf("%s, α=%g: direct measurement of the full assignment family\n",
			topo.Name(topology), alpha)
		measurements, err := sim.Sweep(g, nil, sim.PaperParams(), alpha, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("%-6s %-28s %s\n", "q_r", "availability (95% CI)", "batches")
		for i, m := range measurements {
			fmt.Printf("%-6d %-28v %d\n", i+1, m.Overall, m.Batches)
		}
		return 0
	}

	a := quorum.Assignment{QR: qr, QW: T - qr + 1}
	if err := a.Validate(T); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	fmt.Printf("%s, %v, α=%g, batches of %d accesses\n",
		topo.Name(topology), a, alpha, cfg.BatchAccesses)
	meas, err := sim.MeasureAvailability(g, nil, sim.PaperParams(), a, alpha, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("availability (ACC): %v over %d batches\n", meas.Overall, meas.Batches)
	if alpha > 0 {
		fmt.Printf("read availability:  %v\n", meas.Read)
	}
	if alpha < 1 {
		fmt.Printf("write availability: %v\n", meas.Write)
	}
	return 0
}

// runChaos drives the message-level chaos harness for each requested mix
// and prints per-run availability, the fault counters, and the history
// checker's verdict. Exit status is non-zero when any run violates
// one-copy serializability (which would be a protocol bug, not a fault
// effect).
func runChaos(mixName string, steps, n int, seed uint64, async bool, sink *obsSink) int {
	names := []string{mixName}
	if mixName == "all" {
		names = faults.Names()
	}
	status := 0
	for _, name := range names {
		mix, err := faults.Named(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		plan := faults.NewPlan(seed, mix)
		g := graph.Complete(n)
		st := graph.NewState(g, nil)

		var rt cluster.ChaosRuntime
		runtimeName := "deterministic"
		if async {
			runtimeName = "async"
			a, err := cluster.NewAsync(st, quorum.Majority(n))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			defer a.Close()
			a.EnableChaos(plan, cluster.DefaultRetryPolicy())
			rt = a
		} else {
			c, err := cluster.New(st, quorum.Majority(n))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			c.EnableChaos(plan, cluster.DefaultRetryPolicy())
			rt = c
		}
		sink.attach(rt)

		run := cluster.RunChaos(rt, plan, seed^0xc4a05, steps, n, g.M())
		verdict := "1SR OK"
		if err := run.Log.Check(); err != nil {
			verdict = "VIOLATION: " + err.Error()
			status = 1
		}
		fmt.Printf("mix=%-13s runtime=%s seed=%d n=%d\n  %v\n  %v\n  %s\n",
			name, runtimeName, seed, n, run, run.Counters, verdict)
	}
	return status
}
