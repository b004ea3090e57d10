package cluster

import (
	"reflect"
	"testing"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/workload"
)

// advRegions splits the 9-site ring into three 3-site "regions" for storm
// and shock scenarios.
func advRegions() [][]int {
	return [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}}
}

func advTestConfig(seed uint64, steps int, daemon bool) AdversaryConfig {
	h := DefaultHealthConfig()
	h.Alpha = 0.9
	return AdversaryConfig{
		Seed: seed, Steps: steps, Sites: 9, Links: 9,
		Workload: workload.Diurnal{Period: 400, Mean: 0.6, Amplitude: 0.3},
		Churn:    soakTestChurn(),
		Daemon:   daemon, Health: h,
		EpochSteps: 50,
	}
}

// newAdvCluster builds a fresh deterministic runtime and its mirror state
// over the same topology.
func newAdvCluster(t *testing.T) (*Cluster, *graph.State) {
	t.Helper()
	g := graph.Ring(9)
	c, err := New(graph.NewState(g, nil), quorum.Majority(9))
	if err != nil {
		t.Fatal(err)
	}
	return c, graph.NewState(g, nil)
}

// TestAdversaryDeterministicReplay: the whole scenario — churn, shocks,
// partitions, workload, epochs — is a pure function of the config.
func TestAdversaryDeterministicReplay(t *testing.T) {
	cfg := advTestConfig(11, 600, true)
	cfg.Churn.Regions = advRegions()[:2]
	cfg.Churn.ShockMTBF, cfg.Churn.ShockMTTR = 200, 15
	cfg.LinkFaults = faults.Storm(11, faults.StormConfig{
		Sites: 9, Regions: advRegions(), Start: 50, End: 500,
		MeanDuration: 30, MeanGap: 80, OneWayFraction: 0.3,
	})

	rt1, m1 := newAdvCluster(t)
	rt2, m2 := newAdvCluster(t)
	a := RunAdversary(rt1, m1, cfg)
	b := RunAdversary(rt2, m2, cfg)

	if a.Ops != b.Ops || a.Granted != b.Granted || a.Regret != b.Regret ||
		a.PartitionDrops != b.PartitionDrops || a.MinorityWrites != b.MinorityWrites {
		t.Fatalf("replay diverged:\n a %v\n b %v", a, b)
	}
	if !reflect.DeepEqual(a.Epochs, b.Epochs) {
		t.Fatalf("epoch records diverged:\n a %+v\n b %+v", a.Epochs, b.Epochs)
	}
}

// TestAdversaryEpochAccounting: epoch records must tile the churn phase —
// their op counts, regret, and oracle mass sum to the run totals.
func TestAdversaryEpochAccounting(t *testing.T) {
	cfg := advTestConfig(3, 730, true) // deliberately not a multiple of EpochSteps
	rt, mirror := newAdvCluster(t)
	run := RunAdversary(rt, mirror, cfg)

	var ops int64
	var regret, oracleOps float64
	for _, e := range run.Epochs {
		if e.Step%cfg.EpochSteps != 0 && e.Step != cfg.Steps {
			t.Fatalf("epoch closed at step %d (period %d, steps %d)",
				e.Step, cfg.EpochSteps, cfg.Steps)
		}
		ops += e.Ops
		regret += e.Regret
		oracleOps += e.Oracle * float64(e.Ops)
	}
	if int(ops) != run.Ops {
		t.Fatalf("epoch ops %d != run ops %d", ops, run.Ops)
	}
	if regret != run.Regret || oracleOps != run.OracleOps {
		t.Fatalf("epoch sums (regret %g, oracle %g) != run (%g, %g)",
			regret, oracleOps, run.Regret, run.OracleOps)
	}
	if run.OracleAvailability() < run.Availability() {
		t.Fatalf("hindsight oracle %.3f below realized availability %.3f",
			run.OracleAvailability(), run.Availability())
	}
}

// TestAdversaryDaemonLowersRegret is the acceptance property on the
// diurnal scenario: the identical stimulus replayed with the daemon on
// must accumulate strictly less regret than the unassisted baseline —
// and since the oracle sees the same epochs either way, the oracle mass
// must agree exactly between the two runs.
func TestAdversaryDaemonLowersRegret(t *testing.T) {
	const steps = 2500
	for seed := uint64(1); seed <= 3; seed++ {
		rtOff, mOff := newAdvCluster(t)
		rtOn, mOn := newAdvCluster(t)
		off := RunAdversary(rtOff, mOff, advTestConfig(seed, steps, false))
		on := RunAdversary(rtOn, mOn, advTestConfig(seed, steps, true))

		for name, run := range map[string]*AdversaryRun{"off": off, "on": on} {
			if run.ViolationErr != nil {
				t.Fatalf("seed %d daemon=%s: 1SR violated: %v", seed, name, run.ViolationErr)
			}
			if run.MinorityWrites != 0 {
				t.Fatalf("seed %d daemon=%s: %d minority writes", seed, name, run.MinorityWrites)
			}
		}
		if off.OracleOps != on.OracleOps || off.Ops != on.Ops {
			t.Fatalf("seed %d: oracle stimulus diverged: off (%g, %d) on (%g, %d)",
				seed, off.OracleOps, off.Ops, on.OracleOps, on.Ops)
		}
		if on.Regret >= off.Regret {
			t.Fatalf("seed %d: daemon-on regret %.1f not below daemon-off %.1f",
				seed, on.Regret, off.Regret)
		}
		if !on.Converged {
			t.Fatalf("seed %d: diverged after healing: %v", seed, on.FinalVersions)
		}
		t.Logf("seed %d: regret on %.1f (%.4f/op) vs off %.1f (%.4f/op)",
			seed, on.Regret, on.RegretPerOp(), off.Regret, off.RegretPerOp())
	}
}

// TestAdversaryPartitionStorm: overlapping regional partitions plus
// correlated regional shocks. Safety must hold through every cut —
// one-copy serializability, zero minority writes — and once the storm
// lifts the daemon must recover availability and convergence.
func TestAdversaryPartitionStorm(t *testing.T) {
	const steps = 2000
	cfg := advTestConfig(7, steps, true)
	cfg.Workload = workload.Constant(0.75)
	cfg.Churn.Regions = advRegions()[:2]
	cfg.Churn.ShockMTBF, cfg.Churn.ShockMTTR = 400, 20
	cfg.LinkFaults = faults.Storm(7, faults.StormConfig{
		Sites: 9, Regions: advRegions(), Start: 0, End: steps * 3 / 4,
		MeanDuration: 40, MeanGap: 70, OneWayFraction: 0.25,
	})

	rt, mirror := newAdvCluster(t)
	run := RunAdversary(rt, mirror, cfg)

	if run.ViolationErr != nil {
		t.Fatalf("1SR violated during storm: %v", run.ViolationErr)
	}
	if run.MinorityWrites != 0 {
		t.Fatalf("%d writes granted from minority components", run.MinorityWrites)
	}
	if run.PartitionDrops == 0 {
		t.Fatal("storm never cut a message — scenario is vacuous")
	}
	if !run.Converged {
		t.Fatalf("assignment versions diverged after the storm: %v", run.FinalVersions)
	}
	if run.SettleAvailability() < 0.99 {
		t.Fatalf("availability did not recover after the storm: %.3f", run.SettleAvailability())
	}
	t.Logf("storm: %s", run)
}

// TestAdversaryMinorityPartitionNeverWrites: a storm-long asymmetry-free
// split pins a 3-site minority off the majority. Writes coordinated there
// must all be denied — the strict-majority write quorum guarantees it —
// while the majority side keeps serving.
func TestAdversaryMinorityPartitionNeverWrites(t *testing.T) {
	const steps = 800
	cfg := advTestConfig(5, steps, true)
	cfg.Workload = workload.Constant(0.4) // write-heavy to stress the gate
	cfg.Churn = faults.ChurnConfig{}      // partitions only
	cfg.LinkFaults = faults.NewLinkSchedule().
		AddSplit(0, steps, []int{0, 1, 2}, []int{3, 4, 5, 6, 7, 8})

	rt, mirror := newAdvCluster(t)
	run := RunAdversary(rt, mirror, cfg)

	if run.ViolationErr != nil {
		t.Fatalf("1SR violated: %v", run.ViolationErr)
	}
	if run.MinorityWrites != 0 {
		t.Fatalf("%d minority writes externalized", run.MinorityWrites)
	}
	if run.GrantedWrites == run.Writes {
		t.Fatal("every write granted — the minority side never refused")
	}
	if run.GrantedWrites == 0 {
		t.Fatal("no writes granted — the majority side never served")
	}
}

// TestAdversaryFlashCrowd: the flash-crowd pattern shifts rate and read
// mix together; the Poisson arrivals must actually surge, and safety and
// recovery must hold through the bursts.
func TestAdversaryFlashCrowd(t *testing.T) {
	const steps = 1500
	fc := workload.FlashCrowd{
		Base: 0.3, Flash: 0.95,
		Start: 200, Duration: 80, Every: 400, RateBoost: 4,
	}
	cfg := advTestConfig(9, steps, true)
	cfg.Workload = fc
	cfg.Rate = fc

	rt, mirror := newAdvCluster(t)
	run := RunAdversary(rt, mirror, cfg)

	if run.ViolationErr != nil {
		t.Fatalf("1SR violated: %v", run.ViolationErr)
	}
	if run.MinorityWrites != 0 {
		t.Fatalf("%d minority writes", run.MinorityWrites)
	}
	// A fifth of the steps run at 4× rate: expect well above one op/step.
	if run.Ops <= steps {
		t.Fatalf("flash crowd never surged: %d ops over %d steps", run.Ops, steps)
	}
	if !run.Converged {
		t.Fatalf("diverged: %v", run.FinalVersions)
	}
}

// TestAdversaryAsyncRuntime drives the concurrent runtime through a
// partition storm under the race detector.
func TestAdversaryAsyncRuntime(t *testing.T) {
	const steps = 700
	cfg := advTestConfig(13, steps, true)
	cfg.LinkFaults = faults.Storm(13, faults.StormConfig{
		Sites: 9, Regions: advRegions(), Start: 0, End: steps / 2,
		MeanDuration: 25, MeanGap: 60, OneWayFraction: 0.4,
	})

	g := graph.Ring(9)
	a, err := NewAsync(graph.NewState(g, nil), quorum.Majority(9))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	run := RunAdversary(a, graph.NewState(g, nil), cfg)

	if run.ViolationErr != nil {
		t.Fatalf("1SR violated: %v", run.ViolationErr)
	}
	if run.MinorityWrites != 0 {
		t.Fatalf("%d minority writes", run.MinorityWrites)
	}
	if run.PartitionDrops == 0 {
		t.Fatal("storm never cut a message")
	}
	if !run.Converged {
		t.Fatalf("diverged: %v", run.FinalVersions)
	}
}

// TestAdversaryAmnesiaUnderStormWithStrategy is the combination the one
// driver makes possible: amnesiac repairs (the fraction
// TestSoakAmnesiaConvergence uses) under a partition storm with an f = 1
// strategy installed and the daemon re-solving it, on both runtimes. Safety
// must hold, every ingredient must actually bite, every wiped node must be
// readmitted and converge after healing, and — the stimulus being pure in
// the seed and the outcome a function of the delivered message set — the
// two runtimes must tally identically.
//
// The storm ends at 3/4 of the run and the amnesia fraction is moderate for
// the reason TestSoakAmnesiaConvergence gives: a majority of copies
// amnesiac at once is terminal, and convergence is asserted here.
func TestAdversaryAmnesiaUnderStormWithStrategy(t *testing.T) {
	const steps = 1500
	for seed := uint64(1); seed <= 2; seed++ {
		cfg := advTestConfig(seed, steps, true)
		cfg.AmnesiaFraction = 0.2
		cfg.Health.Strategy = StrategyResolveConfig{Enabled: true}
		cfg.LinkFaults = faults.Storm(seed, faults.StormConfig{
			Sites: 9, Regions: advRegions(), Start: 0, End: steps * 3 / 4,
			MeanDuration: 40, MeanGap: 70, OneWayFraction: 0.25,
		})
		st := advSeedStrategy(t)
		cfg.Strategy = &st
		cfg.StrategySeed = seed

		det, mirror := newAdvCluster(t)
		a, err := NewAsync(graph.NewState(graph.Ring(9), nil), quorum.Majority(9))
		if err != nil {
			t.Fatal(err)
		}
		runs := map[string]*AdversaryRun{"deterministic": RunAdversary(det, mirror, cfg)}
		runs["async"] = RunAdversary(a, graph.NewState(graph.Ring(9), nil), cfg)
		a.Close()

		for name, run := range runs {
			if run.ViolationErr != nil {
				t.Fatalf("seed %d %s: 1SR violated: %v", seed, name, run.ViolationErr)
			}
			if run.MinorityWrites != 0 {
				t.Fatalf("seed %d %s: %d minority writes", seed, name, run.MinorityWrites)
			}
			if run.Amnesias == 0 || run.PartitionDrops == 0 || run.Strategy.SampledReads == 0 {
				t.Fatalf("seed %d %s: scenario is vacuous: %d amnesias, %d partition drops, %+v",
					seed, name, run.Amnesias, run.PartitionDrops, run.Strategy)
			}
			if !run.Converged {
				t.Fatalf("seed %d %s: versions diverged after healing wiped nodes: %v",
					seed, name, run.FinalVersions)
			}
		}
		// Everything the driver tallies must agree, the history included.
		// Partition-drop totals legitimately differ between the transports
		// (partition.go): the concurrent one decides a reply leg's fate
		// before the peer answers, so it counts a cut reply an abstaining
		// amnesiac never sent.
		d, as := runs["deterministic"], runs["async"]
		as.PartitionDrops = d.PartitionDrops
		if !reflect.DeepEqual(d, as) {
			t.Fatalf("seed %d: runtimes diverge:\n det %v %+v\n asy %v %+v", seed, d, d.Strategy, as, as.Strategy)
		}
	}
}

// TestAdversaryAdaptiveReplaysAreIndependent: the adaptive adversary's
// moves go into the run's private copy of the schedule, so replaying one
// config — as every suite does, mode after mode — sees the same timetable
// each time: a daemon-off replay after a daemon-on run of the same config
// matches a fresh daemon-off run, and the caller's schedule never grows.
func TestAdversaryAdaptiveReplaysAreIndependent(t *testing.T) {
	cfg := advTestConfig(1, 600, false)
	cfg.Churn = faults.ChurnConfig{SiteMTBF: 500, SiteMTTR: 25, LinkMTBF: 120, LinkMTTR: 25}
	cfg.Adaptive = &faults.QRCritical{Every: 20, Duration: 15, Top: 2, CutEvery: 1}
	cfg.LinkFaults = faults.NewLinkSchedule().AddOneWay(100, 140, []int{4}, []int{5})

	replay := func(daemon bool) *AdversaryRun {
		c := cfg
		c.Daemon = daemon
		rt, mirror := newAdvCluster(t)
		return RunAdversary(rt, mirror, c)
	}
	fresh := replay(false)
	replay(true)
	again := replay(false)
	if fresh.PartitionDrops == 0 {
		t.Fatal("the adversary never cut anything")
	}
	if fresh.Granted != again.Granted || fresh.PartitionDrops != again.PartitionDrops {
		t.Fatalf("replay depends on the runs before it: fresh %d granted %d drops, again %d granted %d drops",
			fresh.Granted, fresh.PartitionDrops, again.Granted, again.PartitionDrops)
	}
	if n := cfg.LinkFaults.NumRules(); n != 1 {
		t.Fatalf("RunAdversary wrote %d rules into the caller's schedule", n-1)
	}
}
