package cluster

import (
	"reflect"
	"testing"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/history"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
	"quorumkit/internal/stats"
	"quorumkit/internal/store"
	"quorumkit/internal/strategy"
	"quorumkit/internal/workload"
)

// handStrategy5 is a hand-built distribution valid for Majority(5) =
// (q_r=2, q_w=4) over unit votes: every read quorum carries 2 votes, every
// write quorum 4. Write mass is split across two quorums so a single site
// failure forces redraws without starving the sampler.
func handStrategy5() strategy.Strategy {
	return strategy.Strategy{
		ReadQuorums: []strategy.Quorum{{0, 1}, {2, 3}, {3, 4}},
		ReadProbs:   []float64{0.5, 0.25, 0.25},
		WriteQuorums: []strategy.Quorum{
			{0, 1, 2, 3}, {1, 2, 3, 4},
		},
		WriteProbs: []float64{0.5, 0.5},
	}
}

// newStrategyCluster builds a complete(5) deterministic cluster with the
// hand-built strategy installed at the boot version.
func newStrategyCluster(t *testing.T, budget int) (*Cluster, *graph.State) {
	t.Helper()
	g := graph.Complete(5)
	st := graph.NewState(g, nil)
	c, err := New(st, quorum.Majority(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallStrategy(handStrategy5(), quorum.Majority(5), c.NodeVersion(0), budget, 7); err != nil {
		t.Fatal(err)
	}
	return c, st
}

// TestStrategyServeSampledQuorums: on a healthy cluster every operation is
// granted off a sampled quorum — no resamples, no fallbacks — and the
// write/read intersection carries values exactly as the deterministic
// protocol would.
func TestStrategyServeSampledQuorums(t *testing.T) {
	c, _ := newStrategyCluster(t, 3)

	for i := 0; i < 20; i++ {
		x := i % 5
		if out := c.ServeWrite(x, int64(100+i)); !out.Granted {
			t.Fatalf("write %d at node %d denied: %+v", i, x, out)
		}
		out := c.ServeRead((x + 1) % 5)
		if !out.Granted {
			t.Fatalf("read %d denied: %+v", i, out)
		}
		if out.Value != int64(100+i) {
			t.Fatalf("read %d: got value %d, want %d (sampled read quorum missed the write)",
				i, out.Value, 100+i)
		}
	}

	ct := c.StrategyCounters()
	if ct.Installs != 1 {
		t.Fatalf("installs = %d, want 1", ct.Installs)
	}
	if ct.SampledReads != 20 || ct.SampledWrites != 20 {
		t.Fatalf("sampled (r=%d, w=%d), want (20, 20)", ct.SampledReads, ct.SampledWrites)
	}
	if ct.Resamples != 0 || ct.Fallbacks != 0 || ct.StaleFallbacks != 0 {
		t.Fatalf("healthy cluster must never redraw or fall back: %+v", ct)
	}
}

// TestSampledReadMessageBudget pins what a granted sampled read sends, on
// both runtimes: a vote request and a reply per quorum member other than
// the coordinator, plus one syncState per member whose reply was stale. On
// a healthy cluster that is the whole budget and no store moves. After a
// write over a quorum that leaves member 4 behind, the read that samples
// 4 pushes to it alone; 4 adopts the merged copy, its next reply's sync
// barrier seals it, and a crash of its disk recovers it.
func TestSampledReadMessageBudget(t *testing.T) {
	const x, stale = 0, 4
	st := strategy.Strategy{
		ReadQuorums: []strategy.Quorum{{3, stale}}, ReadProbs: []float64{1},
		WriteQuorums: []strategy.Quorum{{0, 1, 2, 3}}, WriteProbs: []float64{1},
	}
	runtimes := []struct {
		name string
		make func(*graph.State) (Runtime, *coordinator, func())
	}{
		{"Cluster", func(gs *graph.State) (Runtime, *coordinator, func()) {
			c, err := New(gs, quorum.Majority(5))
			if err != nil {
				t.Fatal(err)
			}
			return c, &c.coordinator, func() {}
		}},
		{"Async", func(gs *graph.State) (Runtime, *coordinator, func()) {
			a, err := NewAsync(gs, quorum.Majority(5))
			if err != nil {
				t.Fatal(err)
			}
			return a, &a.coordinator, a.Close
		}},
	}
	for _, r := range runtimes {
		t.Run(r.name, func(t *testing.T) {
			rt, k, done := r.make(graph.NewState(graph.Complete(5), nil))
			defer done()
			if err := rt.InstallStrategy(st, quorum.Majority(5), rt.NodeVersion(x), 1, 7); err != nil {
				t.Fatal(err)
			}
			stores := func() (out []store.Counters) {
				for i := range k.all {
					out = append(out, k.tr.lock(i).store.Counters())
					k.tr.unlock(i)
				}
				return out
			}
			copyAt := func(i int) quorum.Copy {
				_, c := k.view(i)
				return c
			}
			// 2·|q∖{x}| = 4 messages, plus the pushes.
			read := func(what string, pushes int64) {
				t.Helper()
				sampled, sent := rt.StrategyCounters().SampledReads, k.tr.sent()
				if out := rt.ServeRead(x); !out.Granted {
					t.Fatalf("%s: read denied: %+v", what, out)
				}
				if got := rt.StrategyCounters().SampledReads - sampled; got != 1 {
					t.Fatalf("%s: %d sampled reads, want 1", what, got)
				}
				if got, want := k.tr.sent()-sent, 4+pushes; got != want {
					t.Fatalf("%s: sent %d messages, want %d", what, got, want)
				}
			}

			before := stores()
			read("healthy", 0)
			if after := stores(); !reflect.DeepEqual(after, before) {
				t.Fatalf("a healthy sampled read moved store counters: %+v -> %+v", before, after)
			}

			if out := rt.ServeWrite(x, 42); !out.Granted {
				t.Fatalf("write denied: %+v", out)
			}
			merged := copyAt(3)
			if copyAt(stale) == merged {
				t.Fatal("the write reached the member it was meant to leave stale")
			}
			before = stores()
			read("stale member", 1)
			if got := copyAt(stale); got != merged {
				t.Fatalf("stale member holds %+v after the read, want %+v", got, merged)
			}
			if d := stores()[stale].Appends - before[stale].Appends; d != 1 {
				t.Fatalf("stale member appended %d records, want 1", d)
			}

			read("repaired", 0)
			rep := k.tr.lock(stale)
			rep.store.Crash()
			got, _, err := rep.store.Recover()
			k.tr.unlock(stale)
			if err != nil || got != merged {
				t.Fatalf("stale member recovered %+v (%v), want %+v", got, err, merged)
			}
		})
	}
}

// TestStrategyIdleUnderFaultSource: with a fault source attached the
// serving ladder is never entered, even with a strategy installed. A
// strategy round has no write acks and no read confirmation, so the
// hardened component-wide round serves instead. The same operations
// without the fault source are sampled.
func TestStrategyIdleUnderFaultSource(t *testing.T) {
	serve := func(chaos bool) stats.StrategyCounters {
		c, _ := newStrategyCluster(t, 3)
		if chaos {
			c.EnableChaos(faults.NewPlan(1, faults.Mix{Name: "none"}))
		}
		for i := 0; i < 20; i++ {
			if out := c.ServeWrite(i%5, int64(i+1)); !out.Granted {
				t.Fatalf("chaos=%v: write %d denied: %+v", chaos, i, out)
			}
			if out := c.ServeRead((i + 1) % 5); !out.Granted || out.Value != int64(i+1) {
				t.Fatalf("chaos=%v: read %d: %+v, want value %d", chaos, i, out, i+1)
			}
		}
		return c.StrategyCounters()
	}
	if ct := serve(true); ct.SampledReads+ct.SampledWrites != 0 || ct.Fallbacks != 0 {
		t.Fatalf("the ladder ran under a fault source: %+v", ct)
	}
	if ct := serve(false); ct.SampledReads+ct.SampledWrites == 0 {
		t.Fatalf("nothing was sampled without a fault source: %+v", ct)
	}
}

// TestStrategyResampleOnDownMember: with site 4 down, half the write mass
// (quorum {1,2,3,4}) is unreachable — those draws must be redrawn within
// the budget, and every operation must still be granted (sampled when a
// surviving quorum comes up, deterministic fallback otherwise).
func TestStrategyResampleOnDownMember(t *testing.T) {
	c, st := newStrategyCluster(t, 3)
	st.FailSite(4)

	for i := 0; i < 60; i++ {
		if out := c.ServeWrite(0, int64(i+1)); !out.Granted {
			t.Fatalf("write %d denied with 4 of 5 sites up (q_w=4): %+v", i, out)
		}
		if out := c.ServeRead(1); !out.Granted || out.Value != int64(i+1) {
			t.Fatalf("read %d: %+v, want value %d", i, out, i+1)
		}
	}

	ct := c.StrategyCounters()
	if ct.Resamples == 0 {
		t.Fatal("a downed quorum member never forced a redraw")
	}
	if ct.SampledWrites == 0 || ct.SampledReads == 0 {
		t.Fatalf("sampling starved entirely: %+v", ct)
	}
	if ct.StaleFallbacks != 0 {
		t.Fatalf("no reassignment happened, yet stale fallbacks = %d", ct.StaleFallbacks)
	}
	total := ct.SampledWrites + ct.SampledReads + ct.Fallbacks
	if total != 120 {
		t.Fatalf("every op must end sampled or fallen back: %d of 120 accounted (%+v)", total, ct)
	}
}

// TestStrategyBudgetExhaustionFallsBack: budget 1 turns every unlucky draw
// into a deterministic fallback. The operation must still be granted — the
// ladder never hangs and never fails an op the assignment could serve.
func TestStrategyBudgetExhaustionFallsBack(t *testing.T) {
	c, st := newStrategyCluster(t, 1)
	st.FailSite(4)

	granted := 0
	for i := 0; i < 40; i++ {
		out := c.ServeWrite(0, int64(i+1))
		if !out.Granted {
			t.Fatalf("write %d denied: %+v", i, out)
		}
		granted++
	}
	ct := c.StrategyCounters()
	if ct.Fallbacks == 0 {
		t.Fatal("budget 1 with half the write mass dead never fell back")
	}
	if ct.Resamples != 0 {
		t.Fatalf("budget 1 cannot redraw, yet resamples = %d", ct.Resamples)
	}
	if ct.SampledWrites+ct.Fallbacks != int64(granted) {
		t.Fatalf("op accounting broken: %+v over %d ops", ct, granted)
	}
}

// TestStrategyStaleVersionNeverSampled is the version-safety property: after
// a reassignment bumps the assignment version, the installed strategy is
// never sampled again — every operation takes the stale-fallback edge and
// the sampled counters stay frozen — until a re-solve installs a strategy
// at the new version.
func TestStrategyStaleVersionNeverSampled(t *testing.T) {
	c, _ := newStrategyCluster(t, 3)

	// Warm the sampler so the freeze below is observable.
	for i := 0; i < 5; i++ {
		if out := c.ServeRead(i); !out.Granted {
			t.Fatalf("warmup read %d denied: %+v", i, out)
		}
	}
	before := c.StrategyCounters()
	if before.SampledReads != 5 {
		t.Fatalf("warmup sampled %d reads, want 5", before.SampledReads)
	}

	if err := c.Reassign(0, quorum.Assignment{QR: 3, QW: 3}); err != nil {
		t.Fatal(err)
	}

	const ops = 40
	for i := 0; i < ops; i++ {
		x := i % 5
		var out Outcome
		if i%2 == 0 {
			out = c.ServeRead(x)
		} else {
			out = c.ServeWrite(x, int64(i))
		}
		if !out.Granted {
			t.Fatalf("op %d at node %d denied after reassign: %+v", i, x, out)
		}
	}

	after := c.StrategyCounters()
	if after.SampledReads != before.SampledReads || after.SampledWrites != before.SampledWrites {
		t.Fatalf("stale strategy was sampled: before %+v, after %+v", before, after)
	}
	if after.StaleFallbacks != ops {
		t.Fatalf("stale fallbacks = %d, want %d (one per op)", after.StaleFallbacks, ops)
	}
}

// TestStrategyResolveReinstallsAfterSuspicion drives the full re-solve
// loop: a suspicion edge triggers the daemon, the survivor-restricted LP
// re-solves at the incumbent thresholds, and sampling resumes with quorums
// that avoid the suspected site entirely.
func TestStrategyResolveReinstallsAfterSuspicion(t *testing.T) {
	cfg := DefaultHealthConfig()
	cfg.Alpha = 0.9
	cfg.Hysteresis = 1 // keep the incumbent assignment: only the strategy re-solves
	cfg.Strategy = StrategyResolveConfig{Enabled: true}
	c, st := newHealthCluster(t, cfg)
	c.SetObserver(obs.New())
	if err := c.InstallStrategy(handStrategy5(), quorum.Majority(5), c.NodeVersion(0), 3, 7); err != nil {
		t.Fatal(err)
	}
	// Seed every site's §4.2 histogram so the optimizer attempt has data.
	for x := 0; x < 5; x++ {
		for i := 0; i < 80; i++ {
			c.nodes[x].observe(1)
		}
		for i := 0; i < 20; i++ {
			c.nodes[x].observe(5)
		}
	}

	st.FailSite(4)
	c.DaemonStep(0)
	rep := c.DaemonStep(0) // second miss → suspected → trigger → attempt
	if !rep.Attempted {
		t.Fatalf("suspicion edge must reach the daemon attempt: %+v", rep)
	}
	if rep.Reassigned {
		t.Fatalf("hysteresis 1 must keep the incumbent assignment: %+v", rep)
	}

	ct := c.StrategyCounters()
	if ct.Resolves != 1 || ct.ResolveFails != 0 {
		t.Fatalf("re-solve must succeed over survivors {0..3} at (2,4): %+v", ct)
	}
	if got := c.Observer().Counter(obs.CStrategyResolve); got != 1 {
		t.Fatalf("quorumkit_strategy_resolves_total = %d, want 1", got)
	}

	// The re-solved strategy lives on the survivors only: site 4 can never
	// be sampled, so no operation redraws and none falls back.
	base := c.StrategyCounters()
	for i := 0; i < 30; i++ {
		x := i % 4 // coordinators among the survivors
		if out := c.ServeWrite(x, int64(i+1)); !out.Granted {
			t.Fatalf("post-resolve write %d denied: %+v", i, out)
		}
		if out := c.ServeRead((x + 1) % 4); !out.Granted || out.Value != int64(i+1) {
			t.Fatalf("post-resolve read %d: %+v", i, out)
		}
	}
	ct = c.StrategyCounters()
	if ct.Resamples != base.Resamples || ct.Fallbacks != base.Fallbacks {
		t.Fatalf("re-solved strategy still touches the suspected site: base %+v, after %+v", base, ct)
	}
	if ct.SampledWrites-base.SampledWrites != 30 || ct.SampledReads-base.SampledReads != 30 {
		t.Fatalf("sampling did not resume after the re-solve: base %+v, after %+v", base, ct)
	}
}

// TestStrategyResolveDegradesWhenInfeasible: with resilience f=1 the
// survivor LP needs write quorums of 5 votes out of 4 surviving sites —
// infeasible. The re-solve must degrade (clear the sampler, count the
// failure) and serving must continue deterministically, not error.
func TestStrategyResolveDegradesWhenInfeasible(t *testing.T) {
	cfg := DefaultHealthConfig()
	cfg.Alpha = 0.9
	cfg.Hysteresis = 1
	cfg.Strategy = StrategyResolveConfig{Enabled: true, Resilience: 1}
	c, st := newHealthCluster(t, cfg)
	if err := c.InstallStrategy(handStrategy5(), quorum.Majority(5), c.NodeVersion(0), 3, 7); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 5; x++ {
		for i := 0; i < 100; i++ {
			c.nodes[x].observe(5)
		}
	}

	st.FailSite(4)
	c.DaemonStep(0)
	rep := c.DaemonStep(0)
	if !rep.Attempted {
		t.Fatalf("suspicion edge must reach the daemon attempt: %+v", rep)
	}

	ct := c.StrategyCounters()
	if ct.ResolveFails == 0 || ct.Resolves != 0 {
		t.Fatalf("infeasible re-solve must degrade, not install: %+v", ct)
	}

	// Degraded ≠ broken: the deterministic path still serves, silently.
	base := c.StrategyCounters()
	for i := 0; i < 10; i++ {
		if out := c.ServeWrite(0, int64(i+1)); !out.Granted {
			t.Fatalf("degraded write %d denied: %+v", i, out)
		}
	}
	ct = c.StrategyCounters()
	if ct.SampledWrites != base.SampledWrites || ct.Fallbacks != base.Fallbacks {
		t.Fatalf("cleared sampler must leave all counters frozen: base %+v, after %+v", base, ct)
	}

	// The same infeasible survivors again, with the sampler re-armed: the
	// memoized failure must degrade exactly as the cold one did.
	if err := c.InstallStrategy(handStrategy5(), quorum.Majority(5), c.NodeVersion(0), 3, 7); err != nil {
		t.Fatal(err)
	}
	c.strategyResolve(0, rep.Suspected)
	if again := c.StrategyCounters(); again.ResolveFails != ct.ResolveFails+1 || again.ResolveSolves != ct.ResolveSolves || c.strat.sampler != nil {
		t.Fatalf("memoized infeasible re-solve must clear the sampler and count a failure without solving: %+v → %+v", ct, again)
	}
}

// handStrategy7 is valid for Majority(7) = (q_r=3, q_w=5) over unit votes.
func handStrategy7() strategy.Strategy {
	return strategy.Strategy{
		ReadQuorums: []strategy.Quorum{{0, 1, 2}, {2, 3, 4}, {4, 5, 6}},
		ReadProbs:   []float64{0.4, 0.3, 0.3},
		WriteQuorums: []strategy.Quorum{
			{0, 1, 2, 3, 4}, {2, 3, 4, 5, 6},
		},
		WriteProbs: []float64{0.5, 0.5},
	}
}

// runStrategyOps drives a shared seeded read/write schedule through
// strategy serving while a partition storm advances, recording every
// outcome and the 1SR history.
func runStrategyOps(t *testing.T, rt Runtime, ps *faults.LinkSchedule, steps, sites int) ([]OpResult, *history.Log, stats.StrategyCounters) {
	t.Helper()
	rt.EnableLinkFaults(ps)
	if err := rt.InstallStrategy(handStrategy7(), quorum.Majority(sites), rt.NodeVersion(0), 3, 99); err != nil {
		t.Fatal(err)
	}
	src := rng.New(17)
	log := &history.Log{}
	var results []OpResult
	for step := 0; step < steps; step++ {
		rt.SetPartitionTime(int64(step))
		now := float64(step)
		site := src.Intn(sites)
		res := OpResult{Step: step, Site: site}
		if src.Intn(100) < 55 {
			res.Kind = "read"
			out := rt.ServeRead(site)
			res.fill(out)
			log.RecordRead(site, out.Granted, out.Value, out.Stamp, now)
		} else {
			res.Kind = "write"
			value := int64(step) + 1
			out := rt.ServeWrite(site, value)
			res.fill(out)
			log.RecordWrite(site, out.Granted, value, out.Stamp, now)
		}
		results = append(results, res)
	}
	return results, log, rt.StrategyCounters()
}

// TestCrossRuntimeStrategyOutcomes: the deterministic and concurrent
// runtimes, driven by the same schedule through the same partition storm
// with the same strategy installed, must agree on every per-operation
// outcome AND on every strategy-ladder decision — the sampled/resample/
// fallback counters match exactly, which pins the shared RNG draw
// sequence. Drop totals are deliberately not compared (the concurrent
// transport pre-filters sends the deterministic one eats at delivery).
func TestCrossRuntimeStrategyOutcomes(t *testing.T) {
	const n, steps = 7, 700
	regions := [][]int{{0, 1, 2}, {3, 4}, {5, 6}}
	storm := faults.Storm(31, faults.StormConfig{
		Sites: n, Regions: regions, Start: 0, End: steps * 3 / 4,
		MeanDuration: 30, MeanGap: 40, OneWayFraction: 0.3,
	})

	g := graph.Complete(n)
	c, err := New(graph.NewState(g, nil), quorum.Majority(n))
	if err != nil {
		t.Fatal(err)
	}
	resC, logC, ctC := runStrategyOps(t, c, storm, steps, n)

	a, err := NewAsync(graph.NewState(g, nil), quorum.Majority(n))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	resA, logA, ctA := runStrategyOps(t, a, storm, steps, n)

	for i := range resC {
		if !reflect.DeepEqual(resC[i], resA[i]) {
			t.Fatalf("step %d diverged:\ncluster: %+v\nasync:   %+v", i, resC[i], resA[i])
		}
	}
	if ctC != ctA {
		t.Fatalf("strategy ladder decisions diverged:\ncluster: %+v\nasync:   %+v", ctC, ctA)
	}
	if ctC.Resamples == 0 || ctC.Fallbacks == 0 {
		t.Fatalf("storm never stressed the ladder (resamples=%d fallbacks=%d) — scenario is vacuous",
			ctC.Resamples, ctC.Fallbacks)
	}
	if c.PartitionDrops() == 0 || a.PartitionDrops() == 0 {
		t.Fatal("storm cut nothing")
	}
	if err := logC.Check(); err != nil {
		t.Fatalf("cluster history: %v", err)
	}
	if err := logA.Check(); err != nil {
		t.Fatalf("async history: %v", err)
	}
}

// TestAdversaryStormWithStrategy certifies strategy serving through the
// full adversary harness: partition storm plus churn with the daemon
// re-solving, one-copy serializability and zero minority writes must hold,
// sampled quorums must actually carry traffic, and the suspicion edges
// must drive at least one certified re-solve.
func TestAdversaryStormWithStrategy(t *testing.T) {
	const steps = 2000
	cfg := advTestConfig(7, steps, true)
	cfg.Health.Strategy = StrategyResolveConfig{Enabled: true}
	cfg.Workload = workload.Constant(0.75)
	cfg.Churn.Regions = advRegions()[:2]
	cfg.Churn.ShockMTBF, cfg.Churn.ShockMTTR = 400, 20
	cfg.LinkFaults = faults.Storm(7, faults.StormConfig{
		Sites: 9, Regions: advRegions(), Start: 0, End: steps * 3 / 4,
		MeanDuration: 40, MeanGap: 70, OneWayFraction: 0.25,
	})
	st := advSeedStrategy(t)
	cfg.Strategy = &st
	cfg.StrategySeed = 7

	rt, mirror := newAdvCluster(t)
	run := RunAdversary(rt, mirror, cfg)

	if run.ViolationErr != nil {
		t.Fatalf("1SR violated with strategies installed: %v", run.ViolationErr)
	}
	if run.MinorityWrites != 0 {
		t.Fatalf("%d minority writes off sampled quorums", run.MinorityWrites)
	}
	if run.PartitionDrops == 0 {
		t.Fatal("storm never cut a message — scenario is vacuous")
	}
	if run.Strategy.SampledReads+run.Strategy.SampledWrites == 0 {
		t.Fatalf("strategy never served an operation: %+v", run.Strategy)
	}
	if run.Strategy.Resolves == 0 {
		t.Fatalf("daemon never re-solved through the storm: %+v", run.Strategy)
	}
	t.Logf("storm with strategy: %s; %s", run, run.Strategy)
}

// TestAdversaryStrategyAsyncRuntime drives the concurrent runtime's
// strategy ladder through a partition storm under the race detector.
func TestAdversaryStrategyAsyncRuntime(t *testing.T) {
	const steps = 700
	cfg := advTestConfig(13, steps, true)
	cfg.Health.Strategy = StrategyResolveConfig{Enabled: true}
	cfg.LinkFaults = faults.Storm(13, faults.StormConfig{
		Sites: 9, Regions: advRegions(), Start: 0, End: steps / 2,
		MeanDuration: 25, MeanGap: 60, OneWayFraction: 0.4,
	})
	st := advSeedStrategy(t)
	cfg.Strategy = &st
	cfg.StrategySeed = 13

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
	if run.Strategy.SampledReads+run.Strategy.SampledWrites == 0 {
		t.Fatalf("strategy never served: %+v", run.Strategy)
	}
}

// advSeedStrategy solves the scenario's initial strategy the way the
// quorumsim suite does: the resilient capacity LP over the 9 unit-vote
// sites at Majority(9), surviving any single failure.
func advSeedStrategy(t *testing.T) strategy.Strategy {
	t.Helper()
	votes := make([]int, 9)
	unit := make([]float64, 9)
	for i := range votes {
		votes[i], unit[i] = 1, 1
	}
	m := quorum.Majority(9)
	sys := strategy.System{Votes: votes, QR: m.QR, QW: m.QW,
		ReadCap: unit, WriteCap: unit, Latency: unit}
	res, err := strategy.OptimizeResilientCapacity(sys, strategy.SingleFr(0.9), 1, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Certify(1e-6); err != nil {
		t.Fatal(err)
	}
	return res.Strategy
}
