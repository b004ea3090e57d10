package main

import (
	"fmt"
	"os"

	"quorumkit/internal/cluster"
	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

// newRuntime builds a fresh runtime over g at the majority assignment. The
// caller must call stop when done: the async runtime holds one goroutine
// per site until then.
func newRuntime(g *graph.Graph, async bool) (rt cluster.Runtime, stop func(), err error) {
	st := graph.NewState(g, nil)
	if async {
		a, err := cluster.NewAsync(st, quorum.Majority(g.N()))
		if err != nil {
			return nil, nil, err
		}
		return a, a.Close, nil
	}
	c, err := cluster.New(st, quorum.Majority(g.N()))
	if err != nil {
		return nil, nil, err
	}
	return c, func() {}, nil
}

// runChaos drives the message-level chaos harness once per requested mix
// and prints per-run availability, the fault counters, and the history
// checker's verdict. Without disk, mix names the message fault mix ("" or
// "all" = every mix). With disk, disk names the disk fault mix ("all" =
// every one) layered under the one message mix ("" = crash): coordinators
// crash mid-protocol and their recoveries replay a damaged log — torn
// tails truncated and repaired, corrupt or wiped media forcing an amnesiac
// rejoin by state transfer. Exit status is non-zero when any run violates
// one-copy serializability (which would be a protocol bug, not a fault
// effect).
func runChaos(mix, disk string, steps, n int, seed uint64, async bool, sink *obsSink) int {
	// The runs differ in the message mix — or, under disk, in the disk mix.
	label, varied, all := "mix", mix, faults.Names()
	if disk != "" {
		label, varied, all = "disk"+label, disk, faults.DiskNames()
		if mix == "" {
			mix = "crash"
		}
	} else if mix == "" {
		varied = "all"
	}
	names := []string{varied}
	if varied == "all" {
		names = all
	}
	runtimeName := "deterministic"
	if async {
		runtimeName = "async"
	}

	status := 0
	for _, name := range names {
		m, d := name, ""
		if disk != "" {
			m, d = mix, name
		}
		run, err := chaosOnce(m, d, steps, n, seed, async, sink)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		verdict := "1SR OK"
		if err := run.Log.Check(); err != nil {
			verdict = "VIOLATION: " + err.Error()
			status = 1
		}
		fmt.Printf("%s=%-13s runtime=%s seed=%d n=%d\n  %v\n  %v\n  %s\n",
			label, name, runtimeName, seed, n, run, run.Counters, verdict)
	}
	return status
}

// chaosOnce runs one message mix, with one disk mix under it if named, on
// a fresh complete-graph runtime. The runtime is stopped before returning:
// an async runtime's site goroutines must not outlive its run.
func chaosOnce(mix, disk string, steps, n int, seed uint64, async bool, sink *obsSink) (*cluster.ChaosRun, error) {
	m, err := faults.Named(mix)
	if err != nil {
		return nil, err
	}
	g := graph.Complete(n)
	rt, stop, err := newRuntime(g, async)
	if err != nil {
		return nil, err
	}
	defer stop()
	plan := faults.NewPlan(seed, m)
	rt.EnableChaos(plan)
	if disk != "" {
		dm, err := faults.NamedDisk(disk)
		if err != nil {
			return nil, err
		}
		rt.EnableDiskChaos(faults.NewDiskPlan(seed^0xd15c, dm))
	}
	sink.attach(rt)
	return cluster.RunChaos(rt, plan, seed^0xc4a05, steps, n, g.M()), nil
}
