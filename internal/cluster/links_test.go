package cluster

import (
	"reflect"
	"testing"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/history"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
)

// TestAsymmetricCutConsistentSuspicion: a one-way cut 0→1 loses node 0's
// probes to node 1 and node 0's acks back to node 1's probes — so each of
// the pair must suspect exactly the other, every other detector must stay
// clean, and the suspicion must hold steady (no unsuspect/resuspect
// oscillation, no reassignment churn from the daemon's hysteresis).
func TestAsymmetricCutConsistentSuspicion(t *testing.T) {
	const n = 5
	g := graph.Complete(n)
	c, err := New(graph.NewState(g, nil), quorum.Majority(n))
	if err != nil {
		t.Fatal(err)
	}
	c.EnableSelfHealing(DefaultHealthConfig())
	c.EnableLinkFaults(faults.NewLinkSchedule().
		AddOneWay(0, 1<<30, []int{0}, []int{1}))
	c.SetPartitionTime(0)

	sweep := func() [n]DaemonReport {
		var reps [n]DaemonReport
		for x := 0; x < n; x++ {
			reps[x] = c.DaemonStep(x)
		}
		return reps
	}
	var reps [n]DaemonReport
	for i := 0; i < 50; i++ {
		reps = sweep()
	}

	// The suspicion set is consistent with the cut: 0 never hears 1's ack
	// (its probe is eaten), 1 never hears 0's ack (the ack direction is
	// eaten), everyone else exchanges both directions freely.
	if !reflect.DeepEqual(reps[0].Suspected, []int{1}) {
		t.Fatalf("node 0 suspects %v, want [1]", reps[0].Suspected)
	}
	if !reflect.DeepEqual(reps[1].Suspected, []int{0}) {
		t.Fatalf("node 1 suspects %v, want [0]", reps[1].Suspected)
	}
	for x := 2; x < n; x++ {
		if len(reps[x].Suspected) != 0 {
			t.Fatalf("node %d suspects %v under a cut it is not part of", x, reps[x].Suspected)
		}
	}

	// Stability: once settled, further sweeps must not flap the suspicion
	// set or keep reassigning — the hysteresis and the cooldown hold.
	before := c.HealthCounters()
	for i := 0; i < 50; i++ {
		reps = sweep()
	}
	after := c.HealthCounters()
	if after.Suspicions != before.Suspicions || after.Unsuspicions != before.Unsuspicions {
		t.Fatalf("suspicion set oscillated: %d→%d suspicions, %d→%d unsuspicions",
			before.Suspicions, after.Suspicions, before.Unsuspicions, after.Unsuspicions)
	}
	if after.DaemonReassigns != before.DaemonReassigns {
		t.Fatalf("daemon kept reassigning under a stable cut: %d→%d",
			before.DaemonReassigns, after.DaemonReassigns)
	}
	if !reflect.DeepEqual(reps[0].Suspected, []int{1}) ||
		!reflect.DeepEqual(reps[1].Suspected, []int{0}) {
		t.Fatalf("suspicion set drifted: 0→%v 1→%v", reps[0].Suspected, reps[1].Suspected)
	}

	// The cut loses messages, never safety or majority service: all five
	// sites are up and in one component, so a write coordinated anywhere
	// outside the cut pair still gathers a quorum.
	if out := c.ServeWrite(2, 1); !out.Granted {
		t.Fatalf("write denied on a majority-connected topology: %+v", out)
	}
}

// runPartitionOps drives a pure partition scenario (fault-plan mix "none",
// all loss from the cut timetable) with a shared seeded schedule,
// advancing the partition clock each step. Mirrors RunChaos's schedule
// structure minus crash recovery (the "none" mix never crashes).
func runPartitionOps(rt Runtime, ps *faults.LinkSchedule, schedSeed uint64, steps, totalVotes int) *ChaosRun {
	rt.EnableLinkFaults(ps)
	src := rng.New(schedSeed)
	run := &ChaosRun{Log: &history.Log{}}
	for step := 0; step < steps; step++ {
		rt.SetPartitionTime(int64(step))
		t := float64(step)
		action := src.Intn(100)
		site := src.Intn(totalVotes)
		extra := src.Intn(1 << 30)
		res := OpResult{Step: step, Site: site}
		switch {
		case action < 55: // read
			run.Reads++
			res.Kind = "read"
			out := rt.ChaosRead(site)
			res.fill(out)
			record(run.Log, site, true, 0, out, t)
			if out.Granted {
				run.GrantedReads++
			}
		case action < 92: // write
			run.Writes++
			res.Kind = "write"
			value := int64(step) + 1
			out := rt.ChaosWrite(site, value)
			res.fill(out)
			record(run.Log, site, false, value, out, t)
			if out.Granted {
				run.GrantedWrites++
			}
		default: // reassign
			run.Reassigns++
			res.Kind = "reassign"
			qr := 1 + extra%((totalVotes+1)/2)
			out := rt.ChaosReassign(site, quorum.Assignment{QR: qr, QW: totalVotes + 1 - qr})
			res.fill(out)
		}
		run.Results = append(run.Results, res)
	}
	run.Counters = rt.ChaosCounters()
	return run
}

// TestCrossRuntimePartitionOutcomes extends the delay-free crosscheck to
// partition-only fault plans: with the plan mix "none", every lost message
// comes from the cut timetable, which is pure in (time, from, to) — so the
// deterministic and concurrent runtimes must produce identical
// per-operation outcomes through an entire partition storm. Partitions add
// no new wire-visible message kinds (cuts only remove deliveries), so
// there is nothing new for the wire fuzzers to seed; this crosscheck is
// the corresponding cross-runtime guarantee.
//
// PartitionDrops totals are deliberately NOT compared: the deterministic
// transport admits a message and eats it at delivery, while the concurrent
// transport suppresses whole round trips, so the message-level counts
// legitimately differ while the delivered sets — and hence all outcomes —
// agree.
func TestCrossRuntimePartitionOutcomes(t *testing.T) {
	const n, steps = 7, 600
	regions := [][]int{{0, 1, 2}, {3, 4}, {5, 6}}
	mix, err := faults.Named("none")
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.NewPlan(4242, mix)
	storm := faults.Storm(99, faults.StormConfig{
		Sites: n, Regions: regions, Start: 0, End: steps,
		MeanDuration: 35, MeanGap: 45, OneWayFraction: 0.3,
	})

	g := graph.Complete(n)
	c, err := New(graph.NewState(g, nil), quorum.Majority(n))
	if err != nil {
		t.Fatal(err)
	}
	c.EnableChaos(plan, DefaultRetryPolicy())
	runC := runPartitionOps(c, storm, 13, steps, n)

	a, err := NewAsync(graph.NewState(g, nil), quorum.Majority(n))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.EnableChaos(plan, DefaultRetryPolicy())
	runA := runPartitionOps(a, storm, 13, steps, n)

	if len(runC.Results) != len(runA.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(runC.Results), len(runA.Results))
	}
	for i := range runC.Results {
		if !reflect.DeepEqual(runC.Results[i], runA.Results[i]) {
			t.Fatalf("step %d diverged:\ncluster: %+v\nasync:   %+v",
				i, runC.Results[i], runA.Results[i])
		}
	}
	if c.PartitionDrops() == 0 || a.PartitionDrops() == 0 {
		t.Fatalf("storm cut nothing (det %d, async %d drops) — scenario is vacuous",
			c.PartitionDrops(), a.PartitionDrops())
	}
	if err := runC.Log.Check(); err != nil {
		t.Fatalf("cluster history: %v", err)
	}
	if err := runA.Log.Check(); err != nil {
		t.Fatalf("async history: %v", err)
	}
}
