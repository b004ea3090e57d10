package cluster

import (
	"reflect"
	"testing"
	"time"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

// soakTestChurn mirrors the CLI's churn regime: hard link flapping (the
// ring partitions into arcs), occasional site failures.
func soakTestChurn() faults.ChurnConfig {
	return faults.ChurnConfig{
		SiteMTBF: 250, SiteMTTR: 25,
		LinkMTBF: 60, LinkMTTR: 25,
	}
}

func soakTestConfig(seed uint64, steps int, daemon bool) AdversaryConfig {
	h := DefaultHealthConfig()
	h.Alpha = 0.9
	return SoakScenario(seed, steps, 9, 9, 0.9, soakTestChurn(), daemon, h)
}

// runSoak replays a 9-site ring scenario against rt and holds the safety
// tripwires every soak must keep.
func runSoak(t *testing.T, rt Runtime, cfg AdversaryConfig) *AdversaryRun {
	t.Helper()
	run := RunAdversary(rt, graph.NewState(graph.Ring(9), nil), cfg)
	if run.MinorityWrites != 0 {
		t.Fatalf("seed %d daemon=%v: %d minority writes", cfg.Seed, cfg.Daemon, run.MinorityWrites)
	}
	return run
}

func newSoakCluster(t *testing.T) *Cluster {
	t.Helper()
	g := graph.Ring(9)
	c, err := New(graph.NewState(g, nil), quorum.Majority(9))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSoakDeterministicSelfHealing is the tentpole's liveness check on the
// deterministic runtime, across seeds: every run keeps one-copy
// serializability, post-churn assignment versions converge on all nodes,
// the availability recovers to the healed-topology optimum, and the daemon
// beats the static baseline on the identical schedule.
func TestSoakDeterministicSelfHealing(t *testing.T) {
	const steps = 2500
	for seed := uint64(1); seed <= 3; seed++ {
		off := runSoak(t, newSoakCluster(t), soakTestConfig(seed, steps, false))
		on := runSoak(t, newSoakCluster(t), soakTestConfig(seed, steps, true))

		for name, run := range map[string]*AdversaryRun{"off": off, "on": on} {
			if run.ViolationErr != nil {
				t.Fatalf("seed %d daemon=%s: 1SR violated: %v", seed, name, run.ViolationErr)
			}
		}
		if !on.Converged {
			t.Fatalf("seed %d: assignment versions diverged after healing: %v",
				seed, on.FinalVersions)
		}
		if on.Health.DaemonReassigns == 0 {
			t.Fatalf("seed %d: the daemon never reassigned under churn: %v", seed, on.Health)
		}
		if on.Availability() <= off.Availability() {
			t.Fatalf("seed %d: daemon-on availability %.3f not above daemon-off %.3f",
				seed, on.Availability(), off.Availability())
		}
		if on.SettleAvailability() < 0.99 {
			t.Fatalf("seed %d: availability did not recover after healing: %.3f",
				seed, on.SettleAvailability())
		}
		t.Logf("seed %d: daemon on %.3f vs off %.3f, %d reassigns",
			seed, on.Availability(), off.Availability(), on.Health.DaemonReassigns)
	}
}

// TestSoakAsyncMatchesDeterministic: with no transport faults in play the
// soak outcome is a pure function of the delivered message set, so the
// concurrent runtime must reproduce the deterministic runtime's run — op
// for op, counter for counter.
func TestSoakAsyncMatchesDeterministic(t *testing.T) {
	const steps = 1200
	for _, daemon := range []bool{false, true} {
		cfg := soakTestConfig(2, steps, daemon)

		det := runSoak(t, newSoakCluster(t), cfg)

		g := graph.Ring(9)
		a, err := NewAsync(graph.NewState(g, nil), quorum.Majority(9))
		if err != nil {
			t.Fatal(err)
		}
		asy := runSoak(t, a, cfg)
		a.Close()

		type flatRun struct {
			Ops, Granted, Reads, GrantedReads, Writes, GrantedWrites int
			DegradedRejects, SettleOps, SettleGranted                int
			SiteEvents, LinkEvents                                   int
			FinalVersions                                            []int64
			Converged                                                bool
		}
		flat := func(r *AdversaryRun) flatRun {
			return flatRun{r.Ops, r.Granted, r.Reads, r.GrantedReads, r.Writes,
				r.GrantedWrites, r.DegradedRejects, r.SettleOps, r.SettleGranted,
				r.SiteEvents, r.LinkEvents, r.FinalVersions, r.Converged}
		}
		if d, as := flat(det), flat(asy); !reflect.DeepEqual(d, as) {
			t.Fatalf("daemon=%v: runtimes diverge:\n det %+v\n asy %+v", daemon, d, as)
		}
		if det.Health != asy.Health {
			t.Fatalf("daemon=%v: health counters diverge:\n det %+v\n asy %+v",
				daemon, det.Health, asy.Health)
		}
		if det.ViolationErr != nil || asy.ViolationErr != nil {
			t.Fatalf("daemon=%v: violations: det=%v asy=%v",
				daemon, det.ViolationErr, asy.ViolationErr)
		}
	}
}

// TestSoakAsyncSelfHealing runs the concurrent runtime's own (smaller) soak
// under -race-friendly sizes with the background daemon goroutine shape
// exercised separately in TestStartDaemonBackground.
func TestSoakAsyncSelfHealing(t *testing.T) {
	const steps = 1000
	g := graph.Ring(9)
	a, err := NewAsync(graph.NewState(g, nil), quorum.Majority(9))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	run := runSoak(t, a, soakTestConfig(5, steps, true))
	if run.ViolationErr != nil {
		t.Fatalf("1SR violated: %v", run.ViolationErr)
	}
	if !run.Converged {
		t.Fatalf("diverged: %v", run.FinalVersions)
	}
	if run.SettleAvailability() < 0.99 {
		t.Fatalf("availability did not recover: %.3f", run.SettleAvailability())
	}
}

// TestStartDaemonBackground exercises the deployment shape under the race
// detector: the daemon goroutine sweeps while the test goroutine serves
// reads and writes through topology churn, and a harness goroutine reads
// every counter set, recovers crashed nodes, wipes and rejoins nodes and
// re-installs the strategy. A fault source and survivor re-solves put every
// feature state in play. That state has no lock but the operation slot, so
// a coordinator operation that reads or replaces it outside the slot races
// with the other two goroutines here.
func TestStartDaemonBackground(t *testing.T) {
	g := graph.Ring(9)
	a, err := NewAsync(graph.NewState(g, nil), quorum.Majority(9))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.EnableChaos(faults.NewPlan(3, faults.Mix{Name: "soak", Drop: 0.05, Duplicate: 0.05, Crash: 0.05}))
	h := DefaultHealthConfig()
	h.Strategy = StrategyResolveConfig{Enabled: true, Resilience: 1}
	a.EnableSelfHealing(h)
	st := advSeedStrategy(t)
	install := func() {
		if err := a.InstallStrategy(st, quorum.Majority(9), a.NodeVersion(0), 3, 5); err != nil {
			t.Error(err)
		}
	}
	install()
	a.StartDaemon(100 * time.Microsecond)

	stop, done := make(chan struct{}), make(chan struct{})
	defer func() { close(stop); <-done }()
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// The pause lets the other goroutines take the slot between two
			// harness calls; a sleep orders nothing, so a call that skips the
			// slot is unordered with what they write meanwhile.
			time.Sleep(20 * time.Microsecond)
			for _, x := range a.Crashed() {
				a.Recover(x)
			}
			switch i % 5 {
			case 0:
				a.ChaosCounters()
			case 1:
				a.StrategyCounters()
			case 2:
				a.HealthCounters()
			case 3:
				a.WipeState(i % 9)
				a.TryRejoin(i % 9)
			default:
				install()
			}
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; a.HealthCounters().DaemonTicks == 0 || i < 400; i++ {
		if time.Now().After(deadline) {
			t.Fatal("background daemon never ticked")
		}
		switch i % 5 {
		case 0:
			a.FailLink(i % g.M())
		case 1:
			a.RepairLink((i - 1) % g.M()) // one cut at a time: the ring stays whole
		case 2:
			a.ServeRead(i % 9)
		case 3:
			a.ServeWrite(i%9, int64(i))
		default:
			a.ServeRead(i % 9)
		}
		// The harness's wipes and installs write what these read.
		a.ChaosCounters()
		a.StrategyCounters()
	}
}

// TestChurnScheduleIsOutcomeIndependent: the soak's stimulus (site/link
// events, op mix) must be identical whether or not the daemon runs — that
// independence is what makes the on-vs-off availability comparison valid.
func TestChurnScheduleIsOutcomeIndependent(t *testing.T) {
	off := runSoak(t, newSoakCluster(t), soakTestConfig(7, 800, false))
	on := runSoak(t, newSoakCluster(t), soakTestConfig(7, 800, true))
	if off.SiteEvents != on.SiteEvents || off.LinkEvents != on.LinkEvents {
		t.Fatalf("churn schedule diverged: off %d/%d on %d/%d events",
			off.SiteEvents, off.LinkEvents, on.SiteEvents, on.LinkEvents)
	}
	if off.Reads != on.Reads || off.Writes != on.Writes {
		t.Fatalf("op schedule diverged: off %d/%d on %d/%d",
			off.Reads, off.Writes, on.Reads, on.Writes)
	}
}
