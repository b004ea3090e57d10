package main

import (
	"fmt"
	"os"

	"quorumkit/internal/cluster"
	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

// runDiskChaos drives the chaos harness with disk-fault injection layered
// under the crash-bearing message mix: coordinators crash mid-protocol and
// their recoveries replay a damaged log — torn tails truncated and
// repaired, corrupt or wiped media forcing an amnesiac rejoin by state
// transfer. It reports the fault counters (including recoveries, amnesias,
// and rejoins) and the history checker's one-copy-serializability verdict.
// Exit status is non-zero when any run violates 1SR.
func runDiskChaos(diskMixName string, steps, n int, seed uint64, async bool, sink *obsSink) int {
	names := []string{diskMixName}
	if diskMixName == "all" {
		names = faults.DiskNames()
	}
	mix, err := faults.Named("crash")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	status := 0
	for _, name := range names {
		dmix, err := faults.NamedDisk(name)
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
			a.EnableDiskChaos(faults.NewDiskPlan(seed^0xd15c, dmix))
			rt = a
		} else {
			c, err := cluster.New(st, quorum.Majority(n))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			c.EnableChaos(plan, cluster.DefaultRetryPolicy())
			c.EnableDiskChaos(faults.NewDiskPlan(seed^0xd15c, dmix))
			rt = c
		}
		sink.attach(rt)

		run := cluster.RunChaos(rt, plan, seed^0xc4a05, steps, n, g.M())
		verdict := "1SR OK"
		if err := run.Log.Check(); err != nil {
			verdict = "VIOLATION: " + err.Error()
			status = 1
		}
		fmt.Printf("diskmix=%-13s runtime=%s seed=%d n=%d\n  %v\n  %v\n  %s\n",
			name, runtimeName, seed, n, run, run.Counters, verdict)
	}
	return status
}
