package cluster

import (
	"reflect"
	"testing"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

// TestCrossRuntimeFaultOutcomes runs the same seeded fault plan and the
// same operation schedule against the deterministic Cluster and the
// concurrent Async, and requires identical per-operation outcomes —
// grant/deny, values, stamps, typed errors, attempt counts, residues.
//
// This holds because each decision in the hardened protocol is a function
// of the *set* of delivered messages (replies and acks are deduplicated and
// max-merged, never order-sensitive) and the fault plan is a pure function
// of the message identity. The responder prefix chosen by a mid-apply crash
// is taken in canonical sender order on both runtimes for the same reason.
// Delayed and reordered copies change nothing: both transports return only
// once every delivery they admitted has been processed, so none lands
// during a later operation.
func TestCrossRuntimeFaultOutcomes(t *testing.T) {
	const n, steps = 7, 700
	for _, mixName := range []string{"drop", "dup", "crash", "reorder-delay"} {
		t.Run(mixName, func(t *testing.T) {
			mix, err := faults.Named(mixName)
			if err != nil {
				t.Fatal(err)
			}
			plan := faults.NewPlan(4242, mix)

			g := graph.Complete(n)
			stC := graph.NewState(g, nil)
			c, err := New(stC, quorum.Majority(n))
			if err != nil {
				t.Fatal(err)
			}
			c.EnableChaos(plan)
			runC := RunChaos(c, plan, 13, steps, n, g.M())

			stA := graph.NewState(g, nil)
			a, err := NewAsync(stA, quorum.Majority(n))
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			a.EnableChaos(plan)
			runA := RunChaos(a, plan, 13, steps, n, g.M())

			if len(runC.Results) != len(runA.Results) {
				t.Fatalf("result counts differ: %d vs %d", len(runC.Results), len(runA.Results))
			}
			for i := range runC.Results {
				if !reflect.DeepEqual(runC.Results[i], runA.Results[i]) {
					t.Fatalf("step %d diverged:\ncluster: %+v\nasync:   %+v",
						i, runC.Results[i], runA.Results[i])
				}
			}
			// Operation-level accounting must agree too (message-level
			// counters intentionally differ: the async transport models a
			// lost round trip as one loss event).
			cc, ca := runC.Counters, runA.Counters
			opsC := []int64{cc.Retries, cc.Aborts, cc.Timeouts, cc.NoQuorum,
				cc.Indeterminate, cc.Crashes, cc.Recoveries, cc.BackoffTicks}
			opsA := []int64{ca.Retries, ca.Aborts, ca.Timeouts, ca.NoQuorum,
				ca.Indeterminate, ca.Crashes, ca.Recoveries, ca.BackoffTicks}
			if !reflect.DeepEqual(opsC, opsA) {
				t.Fatalf("operation counters diverged:\ncluster: %v\nasync:   %v", opsC, opsA)
			}
			// Both runs checked the same schedule; the histories must agree
			// with the checker as well.
			if err := runC.Log.Check(); err != nil {
				t.Fatalf("cluster history: %v", err)
			}
			if err := runA.Log.Check(); err != nil {
				t.Fatalf("async history: %v", err)
			}
		})
	}
}
