package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/stats"
	"quorumkit/internal/store"
)

// typedCounts is everything a runtime reports about itself outside the obs
// registry, read through its exported accessors: the values the registry's
// counters and gauges must agree with.
type typedCounts struct {
	traffic   Stats // Async: sent and delivered are MessagesSent, dropped the plan's drops
	chaos     stats.ChaosCounters
	health    stats.HealthCounters
	strat     stats.StrategyCounters
	store     store.Counters // summed over the sites
	partDrops int64
	crashed   int64 // sites down by an injected crash
	amnesiac  int64 // sites awaiting a state-transfer rejoin
	// suspected and degraded are the suspicion edges and the non-healthy
	// nodes of each node's latest daemon report (deterministic runtime).
	suspected, degraded int64
}

// pinRun is one runtime under one scenario: the runtime, its site count, and
// each node's latest daemon report.
type pinRun struct {
	rt      Runtime
	n       int
	reports []DaemonReport
}

func (p *pinRun) read() typedCounts {
	c := typedCounts{chaos: p.rt.ChaosCounters(), health: p.rt.HealthCounters(),
		strat: p.rt.StrategyCounters(), partDrops: p.rt.PartitionDrops(),
		crashed: int64(len(p.rt.Crashed()))}
	k := p.coordinator()
	switch rt := p.rt.(type) {
	case *Cluster:
		c.traffic = rt.Stats()
	case *Async:
		sent := rt.MessagesSent()
		c.traffic = Stats{Sent: sent, Delivered: sent, Dropped: c.chaos.MsgDropped}
	}
	for x := 0; x < p.n; x++ {
		s := k.StoreCounters(x)
		c.store.Appends += s.Appends
		c.store.Syncs += s.Syncs
		c.store.Snapshots += s.Snapshots
		c.store.TruncateRepairs += s.TruncateRepairs
		c.store.CorruptRecoveries += s.CorruptRecoveries
		if k.Amnesiac(x) {
			c.amnesiac++
		}
	}
	for _, r := range p.reports {
		c.suspected += int64(len(r.Suspected))
		if r.Mode != ModeHealthy {
			c.degraded++
		}
	}
	return c
}

func (p *pinRun) coordinator() *coordinator {
	if c, ok := p.rt.(*Cluster); ok {
		return &c.coordinator
	}
	return &p.rt.(*Async).coordinator
}

// sweep runs one daemon step at every node, keeping each node's report.
func (p *pinRun) sweep() {
	for x := 0; x < p.n; x++ {
		p.reports[x] = p.rt.DaemonStep(x)
	}
}

// pinScenario is a workload in two phases over one runtime. setup enables
// the features it needs; each phase returns the amnesias its driver caused.
type pinScenario struct {
	name  string
	graph func() *graph.Graph
	setup func(t *testing.T, p *pinRun)
	phase func(t *testing.T, p *pinRun, i int) (amnesias int64)
	// daemon: the async runtime also runs the daemon in the background.
	daemon bool
	// busy names the counters the whole run must move, so that agreement
	// is not agreement at zero.
	busy []obs.CounterID
}

func pinScenarios(t *testing.T) []pinScenario {
	crash, err := faults.Named("crash")
	if err != nil {
		t.Fatal(err)
	}
	disk, err := faults.NamedDisk("disk-all")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 3
	plan := faults.NewPlan(seed, crash)
	gray := DefaultHealthConfig()
	gray.Alpha = 0.9
	resolve := HealthConfig{Alpha: 0.9, Strategy: StrategyResolveConfig{Enabled: true, Resilience: 1, Seed: seed}}
	st := advSeedStrategy(t)
	return []pinScenario{{
		name:  "chaos",
		graph: func() *graph.Graph { return graph.Complete(5) },
		setup: func(t *testing.T, p *pinRun) {
			p.rt.EnableChaos(plan)
			p.rt.EnableDiskChaos(faults.NewDiskPlan(seed^0xd15c, disk))
		},
		phase: func(t *testing.T, p *pinRun, i int) int64 {
			before := p.rt.ChaosCounters().Amnesias
			RunChaos(p.rt, plan, seed^uint64(i+1), 600, p.n, graph.Complete(p.n).M())
			return p.rt.ChaosCounters().Amnesias - before
		},
		busy: []obs.CounterID{obs.CRetry, obs.CCrash, obs.CRecovery, obs.CAmnesia, obs.CRejoin,
			obs.CMsgDropped, obs.CStoreTruncRepair, obs.CStoreCorrupt},
	}, {
		name:  "gray",
		graph: func() *graph.Graph { return graph.Complete(5) },
		setup: func(t *testing.T, p *pinRun) {
			p.rt.EnableSelfHealing(gray)
			p.rt.EnableLinkFaults(faults.NewLinkSchedule().
				AddSiteSlow(0, 200, 1, 10, 0).
				SetHeavyTail(7, 0.2, 4, 30))
		},
		phase: func(t *testing.T, p *pinRun, i int) int64 {
			for step := i * 100; step < (i+1)*100; step++ {
				p.rt.SetPartitionTime(int64(step))
				switch step {
				case 30: // a majority goes down: every view degrades
					p.rt.FailSite(2)
					p.rt.FailSite(3)
					p.rt.FailSite(4)
				case 70:
					p.rt.RepairSite(2)
					p.rt.RepairSite(3)
					p.rt.RepairSite(4)
				case 130:
					p.rt.FailSite(4)
				case 170:
					p.rt.RepairSite(4)
				}
				if step%2 == 0 {
					p.sweep()
				}
				if step%3 == 0 {
					p.rt.ServeWrite(step%p.n, int64(step)+1)
				} else {
					p.rt.ServeRead(step % p.n)
				}
			}
			return 0
		},
		daemon: true,
		busy: []obs.CounterID{obs.CLateAck, obs.CSuspect, obs.CUnsuspect, obs.CDegrade, obs.CHeal,
			obs.CDegradedReject, obs.CDaemonReassign},
	}, {
		name:  "strategy",
		graph: func() *graph.Graph { return graph.Ring(9) },
		setup: func(t *testing.T, p *pinRun) {
			p.rt.EnableSelfHealing(resolve)
			if err := p.rt.InstallStrategy(st, p.rt.NodeAssignment(0), p.rt.NodeVersion(0), strategyBudget, seed); err != nil {
				t.Fatal(err)
			}
		},
		phase: func(t *testing.T, p *pinRun, i int) int64 {
			for step := i * 120; step < (i+1)*120; step++ {
				switch step {
				case 20:
					p.rt.FailSite(3)
				case 60:
					p.rt.FailSite(6)
				case 100:
					p.rt.RepairSite(3)
					p.rt.RepairSite(6)
				case 150:
					p.rt.FailSite(1)
					p.rt.FailLink(5)
				case 200:
					p.rt.RepairSite(1)
					p.rt.RepairLink(5)
				}
				if step%4 == 0 {
					p.sweep()
				}
				if step%5 == 0 {
					p.rt.ServeWrite(step%p.n, int64(step)+1)
				} else {
					p.rt.ServeRead(step % p.n)
				}
			}
			return 0
		},
		daemon: true,
		busy: []obs.CounterID{obs.CStrategyRead, obs.CStrategyWrite, obs.CStrategyResample,
			obs.CStrategyFallback, obs.CStrategyResolve},
	}, {
		name:  "adversary-amnesia",
		graph: func() *graph.Graph { return graph.Ring(9) },
		setup: func(t *testing.T, p *pinRun) {},
		phase: func(t *testing.T, p *pinRun, i int) int64 {
			cfg := SoakScenario(seed+uint64(i), 300, p.n, graph.Ring(p.n).M(), 0.9, soakTestChurn(), false, HealthConfig{})
			cfg.AmnesiaFraction = 0.3
			return int64(runSoak(t, p.rt, cfg).Amnesias)
		},
		busy: []obs.CounterID{obs.CAmnesia, obs.CRejoin, obs.CMsgDropped, obs.CStoreAppend, obs.CStoreSync},
	}}
}

// TestRegistryAgreesWithTypedCounters pins, on both runtimes, what the obs
// registry reports for every event a typed counter also counts: the message
// counters, the fault-hardening and crash-recovery counters, the detector,
// daemon and degradation counters, the strategy-serving counters, the store
// counters, the partition drops and the four gauges that are differences of
// them. Each must equal the growth of the typed value since the registry was
// attached, and the gauges the change in what they gauge (crashed and
// amnesiac sites, and on the deterministic runtime the suspicion edges and
// degraded nodes of the latest daemon reports); amnesia without a fault
// source is judged by the scenario driver's own count. The registry is
// attached once, either at construction or between the two phases of the
// workload. On the concurrent runtime a second goroutine snapshots the
// registry throughout, and the daemon also runs in the background where the
// scenario heals itself.
func TestRegistryAgreesWithTypedCounters(t *testing.T) {
	for _, sc := range pinScenarios(t) {
		for _, runtime := range []string{"deterministic", "async"} {
			for _, midRun := range []bool{false, true} {
				sc, runtime, midRun := sc, runtime, midRun
				attach := "construction"
				if midRun {
					attach = "mid-run"
				}
				t.Run(fmt.Sprintf("%s/%s/%s", sc.name, runtime, attach), func(t *testing.T) {
					runPinScenario(t, sc, runtime == "async", midRun)
				})
			}
		}
	}
}

// runPinScenario runs one scenario on one runtime with the registry attached
// at construction or mid-run, and checks every collected counter and gauge.
func runPinScenario(t *testing.T, sc pinScenario, async, midRun bool) {
	g := sc.graph()
	p := &pinRun{n: g.N(), reports: make([]DaemonReport, g.N())}
	for x := range p.reports {
		p.reports[x] = DaemonReport{Node: x, Mode: ModeHealthy}
	}
	var a *Async
	closeAsync := func() {}
	if async {
		var err error
		if a, err = NewAsync(graph.NewState(g, nil), quorum.Majority(g.N())); err != nil {
			t.Fatal(err)
		}
		closeAsync = sync.OnceFunc(a.Close)
		defer closeAsync()
		p.rt = a
	} else {
		c, err := New(graph.NewState(g, nil), quorum.Majority(g.N()))
		if err != nil {
			t.Fatal(err)
		}
		p.rt = c
	}

	reg := obs.New()
	var base typedCounts
	var amnesias int64
	stop, done := make(chan struct{}), make(chan struct{})
	close(done)
	stopSnapshots := sync.OnceFunc(func() { close(stop); <-done })
	defer stopSnapshots()
	attach := func() {
		p.coordinator().SetObserver(reg)
		base, amnesias = p.read(), 0
	}
	// background starts, on the concurrent runtime, what runs beside the
	// workload once the registry is attached and the features enabled.
	background := func() {
		if a == nil {
			return
		}
		if sc.daemon {
			a.StartDaemon(time.Millisecond)
		}
		done = make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				case <-time.After(200 * time.Microsecond):
					reg.Snapshot()
				}
			}
		}()
	}

	if !midRun {
		attach()
	}
	sc.setup(t, p)
	if !midRun {
		background()
	}
	amnesias += sc.phase(t, p, 0)
	if midRun {
		attach()
		background()
	}
	amnesias += sc.phase(t, p, 1)
	stopSnapshots()
	closeAsync() // stops the background daemon: every count is final
	now := p.read()

	d := func(f func(c typedCounts) int64) int64 { return f(now) - f(base) }
	want := map[obs.CounterID]int64{
		obs.CMsgSent:      d(func(c typedCounts) int64 { return c.traffic.Sent }),
		obs.CMsgDelivered: d(func(c typedCounts) int64 { return c.traffic.Delivered }),
		obs.CMsgDropped:   d(func(c typedCounts) int64 { return c.traffic.Dropped }),

		obs.CRetry:    d(func(c typedCounts) int64 { return c.chaos.Retries }),
		obs.CCrash:    d(func(c typedCounts) int64 { return c.chaos.Crashes }),
		obs.CRecovery: d(func(c typedCounts) int64 { return c.chaos.Recoveries }),
		obs.CAmnesia:  amnesias,
		obs.CRejoin:   amnesias - d(func(c typedCounts) int64 { return c.amnesiac }),

		obs.CLateAck:        d(func(c typedCounts) int64 { return c.health.LateAcks }),
		obs.CSuspect:        d(func(c typedCounts) int64 { return c.health.Suspicions }),
		obs.CUnsuspect:      d(func(c typedCounts) int64 { return c.health.Unsuspicions }),
		obs.CDegrade:        d(func(c typedCounts) int64 { return c.health.Degradations }),
		obs.CHeal:           d(func(c typedCounts) int64 { return c.health.Healings }),
		obs.CDegradedReject: d(func(c typedCounts) int64 { return c.health.DegradedReads + c.health.DegradedWrites }),
		obs.CDaemonReassign: d(func(c typedCounts) int64 { return c.health.DaemonReassigns }),
		obs.CSyncRound:      d(func(c typedCounts) int64 { return c.health.SyncRounds }),

		obs.CStrategyRead:     d(func(c typedCounts) int64 { return c.strat.SampledReads }),
		obs.CStrategyWrite:    d(func(c typedCounts) int64 { return c.strat.SampledWrites }),
		obs.CStrategyResample: d(func(c typedCounts) int64 { return c.strat.Resamples }),
		obs.CStrategyFallback: d(func(c typedCounts) int64 { return c.strat.Fallbacks }),
		obs.CStrategyResolve:  d(func(c typedCounts) int64 { return c.strat.Resolves }),

		obs.CStoreAppend:      d(func(c typedCounts) int64 { return c.store.Appends }),
		obs.CStoreSync:        d(func(c typedCounts) int64 { return c.store.Syncs }),
		obs.CStoreSnapshot:    d(func(c typedCounts) int64 { return c.store.Snapshots }),
		obs.CStoreTruncRepair: d(func(c typedCounts) int64 { return c.store.TruncateRepairs }),
		obs.CStoreCorrupt:     d(func(c typedCounts) int64 { return c.store.CorruptRecoveries }),

		obs.CPartitionDrop: d(func(c typedCounts) int64 { return c.partDrops }),
	}
	wantGauge := map[obs.GaugeID]int64{
		obs.GSuspectedPeers: want[obs.CSuspect] - want[obs.CUnsuspect],
		obs.GDegradedNodes:  want[obs.CDegrade] - want[obs.CHeal],
		obs.GCrashedNodes:   d(func(c typedCounts) int64 { return c.crashed }),
		obs.GAmnesiacNodes:  d(func(c typedCounts) int64 { return c.amnesiac }),
	}
	if !async {
		// The latest reports are each view as the daemon left it.
		if got := d(func(c typedCounts) int64 { return c.suspected }); got != wantGauge[obs.GSuspectedPeers] {
			t.Errorf("suspicion edges in the latest reports moved by %d, counters by %d", got, wantGauge[obs.GSuspectedPeers])
		}
		if got := d(func(c typedCounts) int64 { return c.degraded }); got != wantGauge[obs.GDegradedNodes] {
			t.Errorf("degraded nodes in the latest reports moved by %d, counters by %d", got, wantGauge[obs.GDegradedNodes])
		}
	}

	snap := reg.Snapshot()
	for c, w := range want {
		if got := snap.Counter(c); got != w {
			t.Errorf("%s = %d, want %d", c.Name(), got, w)
		}
	}
	for g, w := range wantGauge {
		if got := snap.Gauge(g); got != w {
			t.Errorf("%s = %d, want %d", g.Name(), got, w)
		}
	}
	if !midRun && !async {
		for _, c := range sc.busy {
			if want[c] == 0 {
				t.Errorf("%s never moved: the scenario does not exercise it", c.Name())
			}
		}
	}
}
