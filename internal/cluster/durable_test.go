package cluster

import (
	"errors"
	"reflect"
	"testing"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

// The durability layer's contract, exercised end to end:
//
//   - a clean crash-recovery restores exactly the state the node could have
//     externalized (fsync-before-externalize), so no acknowledged write is
//     ever lost and one-copy serializability holds under every disk mix;
//   - a corrupt or wiped store forces the amnesiac path: the node abstains
//     from every quorum-bearing exchange until a write quorum of *other*
//     members backs its state transfer;
//   - both runtimes walk these paths decision-for-decision under delay-free
//     fault mixes.

// TestAmnesiacLifecycleDeterministic walks the full amnesia lifecycle on
// the deterministic runtime: wipe → abstention (votes no longer count) →
// rejoin blocked below the rejoin quorum of peers → readmission with the
// committed state once the rejoin quorum (⌈T/2⌉ = 3 peer votes at T=5) is
// reachable.
func TestAmnesiacLifecycleDeterministic(t *testing.T) {
	const n = 5 // majority: QR=2, QW=4
	g := graph.Complete(n)
	st := graph.NewState(g, nil)
	c, err := New(st, quorum.Majority(n))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Write(0, 42) {
		t.Fatal("initial write denied")
	}

	// Shrink the live set to exactly a write quorum: {0, 1, 2, 3}.
	c.st.FailSite(4)
	if !c.Write(0, 43) {
		t.Fatal("write with exactly QW live votes denied")
	}

	// Node 2 comes back from repair with a blank disk.
	c.WipeState(2)
	if !c.Amnesiac(2) {
		t.Fatal("WipeState did not mark the node amnesiac")
	}
	// Its vote must no longer count: {0, 1, 3} alone are below QW.
	if c.Write(0, 44) {
		t.Fatal("write granted through an amnesiac copy's vote")
	}
	// Rejoin needs ⌈T/2⌉ = 3 votes from OTHER full members; {0, 1} is not
	// enough.
	c.st.FailSite(3)
	if c.TryRejoin(2) {
		t.Fatal("rejoin succeeded below the rejoin quorum of peers")
	}
	if out := c.ServeRead(2); !errors.Is(out.Err, ErrAmnesiac) {
		t.Fatalf("amnesiac ServeRead: got %v, want ErrAmnesiac", out.Err)
	}

	// One more full member makes the transfer safe: {0, 1, 3} cover ⌈T/2⌉.
	c.st.RepairSite(3)
	if !c.TryRejoin(2) {
		t.Fatal("rejoin failed with the rejoin quorum of peers reachable")
	}
	if c.Amnesiac(2) {
		t.Fatal("node still amnesiac after successful rejoin")
	}
	// The readmitted copy must hold the last committed write (43: the
	// 44-write was denied and applied nowhere).
	if v, _, ok := c.Read(2); !ok || v != 43 {
		t.Fatalf("read after rejoin: got (%d, %v), want (43, true)", v, ok)
	}
	if !c.Write(0, 45) {
		t.Fatal("write denied after the amnesiac rejoined")
	}
	if got := c.StoreCounters(2); got.Appends == 0 || got.Syncs == 0 {
		t.Fatalf("rejoined node's store is idle: %+v", got)
	}
}

// TestAmnesiacLifecycleAsync is the same lifecycle on the concurrent
// runtime.
func TestAmnesiacLifecycleAsync(t *testing.T) {
	const n = 5
	g := graph.Complete(n)
	a, err := NewAsync(graph.NewState(g, nil), quorum.Majority(n))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if !a.Write(0, 42) {
		t.Fatal("initial write denied")
	}
	a.FailSite(4)
	if !a.Write(0, 43) {
		t.Fatal("write with exactly QW live votes denied")
	}

	a.WipeState(2)
	if !a.Amnesiac(2) {
		t.Fatal("WipeState did not mark the node amnesiac")
	}
	if a.Write(0, 44) {
		t.Fatal("write granted through an amnesiac copy's vote")
	}
	a.FailSite(3)
	if a.TryRejoin(2) {
		t.Fatal("rejoin succeeded below the rejoin quorum of peers")
	}
	if out := a.ServeRead(2); !errors.Is(out.Err, ErrAmnesiac) {
		t.Fatalf("amnesiac ServeRead: got %v, want ErrAmnesiac", out.Err)
	}

	a.RepairSite(3)
	if !a.TryRejoin(2) {
		t.Fatal("rejoin failed with the rejoin quorum of peers reachable")
	}
	if v, _, ok := a.Read(2); !ok || v != 43 {
		t.Fatalf("read after rejoin: got (%d, %v), want (43, true)", v, ok)
	}
	if !a.Write(0, 45) {
		t.Fatal("write denied after the amnesiac rejoined")
	}
}

// TestDiskChaosSafetyDeterministic sweeps every disk fault mixture under a
// crash-bearing message mix and seeds: whatever the storage layer loses,
// tears, flips, or wipes, the history must stay one-copy serializable —
// acknowledged writes survive, amnesiac nodes rejoin only by state
// transfer. The damaging mixes must actually exercise the amnesiac path.
func TestDiskChaosSafetyDeterministic(t *testing.T) {
	const n, steps = 5, 600
	mix, err := faults.Named("crash")
	if err != nil {
		t.Fatal(err)
	}
	for _, diskName := range faults.DiskNames() {
		t.Run(diskName, func(t *testing.T) {
			dmix, err := faults.NamedDisk(diskName)
			if err != nil {
				t.Fatal(err)
			}
			var amnesias, rejoins int64
			for seed := uint64(1); seed <= 3; seed++ {
				g := graph.Complete(n)
				c, err := New(graph.NewState(g, nil), quorum.Majority(n))
				if err != nil {
					t.Fatal(err)
				}
				plan := faults.NewPlan(seed, mix)
				c.EnableChaos(plan, DefaultRetryPolicy())
				c.EnableDiskChaos(faults.NewDiskPlan(seed^0xd15c, dmix))
				run := RunChaos(c, plan, seed*7+1, steps, n, g.M())
				if err := run.Log.Check(); err != nil {
					t.Fatalf("seed %d: 1SR violated: %v\n%s", seed, err, run)
				}
				cc := run.Counters
				amnesias += cc.Amnesias
				rejoins += cc.Rejoins
				if cc.Crashes == 0 {
					t.Fatalf("seed %d: crash mix injected no crashes", seed)
				}
				// Every readmission of a damaged node must have gone through
				// the state-transfer path, never around it.
				if cc.Rejoins > cc.Amnesias {
					t.Fatalf("seed %d: %d rejoins for %d amnesias", seed,
						cc.Rejoins, cc.Amnesias)
				}
			}
			damaging := dmix.Corrupt > 0 || dmix.Wipe > 0
			if damaging && amnesias == 0 {
				t.Fatalf("mix %s never triggered amnesia over the sweep", diskName)
			}
			if !damaging && amnesias != 0 {
				t.Fatalf("mix %s triggered %d amnesias; lost-suffix and torn tails must recover cleanly",
					diskName, amnesias)
			}
			if damaging && rejoins == 0 {
				t.Fatalf("mix %s: amnesiac nodes never rejoined", diskName)
			}
		})
	}
}

// TestCrossRuntimeDiskChaosOutcomes extends the runtime cross-check down
// through the storage layer: the same message fault plan plus the same disk
// fault plan must produce identical per-operation outcomes and identical
// crash/amnesia/rejoin accounting on both runtimes. This holds because the
// durable logs are written at the same protocol points with the same
// persist-on-change discipline, so the byte-level disk damage (a pure
// function of content and crash sequence) lands identically.
func TestCrossRuntimeDiskChaosOutcomes(t *testing.T) {
	const n, steps = 5, 500
	mix, err := faults.Named("crash")
	if err != nil {
		t.Fatal(err)
	}
	for _, diskName := range []string{"disk-torn", "disk-corrupt", "disk-wipe", "disk-all"} {
		t.Run(diskName, func(t *testing.T) {
			dmix, err := faults.NamedDisk(diskName)
			if err != nil {
				t.Fatal(err)
			}
			plan := faults.NewPlan(4242, mix)

			g := graph.Complete(n)
			c, err := New(graph.NewState(g, nil), quorum.Majority(n))
			if err != nil {
				t.Fatal(err)
			}
			c.EnableChaos(plan, DefaultRetryPolicy())
			c.EnableDiskChaos(faults.NewDiskPlan(99, dmix))
			runC := RunChaos(c, plan, 13, steps, n, g.M())

			a, err := NewAsync(graph.NewState(g, nil), quorum.Majority(n))
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			a.EnableChaos(plan, DefaultRetryPolicy())
			a.EnableDiskChaos(faults.NewDiskPlan(99, dmix))
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
			cc, ca := runC.Counters, runA.Counters
			opsC := []int64{cc.Retries, cc.Aborts, cc.Timeouts, cc.NoQuorum,
				cc.Indeterminate, cc.Crashes, cc.Recoveries, cc.Amnesias, cc.Rejoins}
			opsA := []int64{ca.Retries, ca.Aborts, ca.Timeouts, ca.NoQuorum,
				ca.Indeterminate, ca.Crashes, ca.Recoveries, ca.Amnesias, ca.Rejoins}
			if !reflect.DeepEqual(opsC, opsA) {
				t.Fatalf("operation counters diverged:\ncluster: %v\nasync:   %v", opsC, opsA)
			}
			if err := runC.Log.Check(); err != nil {
				t.Fatalf("cluster history: %v", err)
			}
			if err := runA.Log.Check(); err != nil {
				t.Fatalf("async history: %v", err)
			}
		})
	}
}

// TestSoakAmnesiaConvergence extends the churn soak: a fraction of site
// repairs come back with wiped storage. The run must stay one-copy
// serializable, actually exercise the wipe path, and still converge all
// assignment versions after healing — wiped nodes included.
//
// The fraction is deliberately moderate: rejoin demands ⌈T/2⌉ votes from
// *full* members, so once a majority of copies is simultaneously amnesiac
// the cluster can never readmit anyone (the committed state may genuinely
// be gone). The soak exercises recoverable amnesia, not that terminal
// regime.
func TestSoakAmnesiaConvergence(t *testing.T) {
	const steps = 1500
	for seed := uint64(1); seed <= 2; seed++ {
		cfg := soakTestConfig(seed, steps, true)
		cfg.AmnesiaFraction = 0.2

		for _, rt := range []struct {
			name string
			mk   func() Runtime
		}{
			{"deterministic", func() Runtime { return newSoakCluster(t) }},
			{"async", func() Runtime {
				a, err := NewAsync(graph.NewState(graph.Ring(9), nil), quorum.Majority(9))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(a.Close)
				return a
			}},
		} {
			run := runSoak(t, rt.mk(), cfg)
			if run.ViolationErr != nil {
				t.Fatalf("seed %d %s: 1SR violated: %v", seed, rt.name, run.ViolationErr)
			}
			if run.Amnesias == 0 {
				t.Fatalf("seed %d %s: AmnesiaFraction=0.5 produced no wipes (%d site events)",
					seed, rt.name, run.SiteEvents)
			}
			if !run.Converged {
				t.Fatalf("seed %d %s: versions diverged after healing wiped nodes: %v",
					seed, rt.name, run.FinalVersions)
			}
			if run.SettleAvailability() < 0.9 {
				t.Fatalf("seed %d %s: settle availability %.3f after amnesia churn\n%s",
					seed, rt.name, run.SettleAvailability(), run)
			}
		}
	}
}
