// Command bench is the repository's one end-to-end benchmark: five
// workloads, four end-to-end metrics each, every number the median of
// back-to-back repetitions. See README.md beside this file.
//
//	go run ./bench --workload serve-read-heavy --seed 1 --seconds 15 --trace 0
//
// prints the end-to-end metrics of one workload and, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}.
// With --trace 1 the same workload runs under spans and the last line
// carries the per-layer metrics instead. Without --workload every workload
// runs in turn; -aa N repeats that N times and checks the spread.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

// The operation counts of paper-study and solve-ladder are whole numbers of
// schedule blocks (30 grid points, 100 rungs), and so are their warm-up
// quarters: otherwise which classes fall into the odd half block, and with
// them set-up time, would depend on the seed.
var workloads = []*workload{
	serveWorkload("serve-read-heavy",
		"90% reads on a healthy 9-site cluster: the steady-state read path (sample, wire, vote collection); p99 is an op that carries a daemon sweep",
		300_000, readHeavy),
	serveWorkload("serve-write-heavy",
		"the same cluster at 90% writes: store append and sync-before-externalize dominate, so store work shows here and not on the read-heavy twin",
		180_000, writeHeavy),
	serveWorkload("churn-resolve",
		"site/link churn with amnesia and a daemon sweep every 8 ops: heartbeats, suspicion edges, survivor re-solves, reassignments and rejoins land on the client",
		100_000, churnMix),
	{name: "paper-study",
		why:    "the paper's own pipeline per cell at 101 sites (simulate, estimate, Figure-1 optimize, measure); touches no serving code, so serving work must not move it",
		ops:    1080,
		newRun: newPaperRun},
	{name: "solve-ladder",
		why:    "certified resilient-capacity solves, 97% at 5-11 sites (enumeration) and 3% at 25-31 sites (column generation); solver work shows here, serving work must not",
		ops:    1200,
		newRun: newLadderRun},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all five in turn)")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 15, "timed seconds per workload; repetitions run until their timed regions add up to this")
		trace   = flag.Int("trace", 0, "1: run under spans and report the per-layer metrics instead")
		scale   = flag.Float64("scale", 1, "multiplier on the operation count of one repetition")
		asJSON  = flag.Bool("json", false, "print one machine-readable document instead of the tables")
		aa      = flag.Int("aa", 0, "run N full sets on seeds seed..seed+N-1 and check that two halves agree within the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *scale <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	// One P. The client is one goroutine, and on this 2-vCPU VM a second P
	// makes every collector handshake wait for a vCPU the host may have
	// descheduled: at 2 Ps the same runs read 10-17% slower and half again
	// as scattered (see README).
	runtime.GOMAXPROCS(1)

	run := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		run = []*workload{w}
	}
	opts := options{seed: *seed, seconds: *seconds, scale: *scale, trace: *trace == 1, json: *asJSON}
	var err error
	if *aa > 0 {
		err = runAA(run, opts, *aa)
	} else {
		err = runOnce(run, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
