package main

import (
	"fmt"
	"time"

	"quorumkit/internal/cluster"
	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/history"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
	"quorumkit/internal/stats"
	"quorumkit/internal/store"
	"quorumkit/internal/strategy"
	"quorumkit/internal/topo"
)

// The three serving workloads drive the deterministic cluster.Cluster, one
// closed-loop client, zero injected message delay: latency is processor
// time only. The goroutine-per-node cluster.Async adds a second latency
// mode from cross-thread wake-ups that no amount of repetition steadies on
// a 2-vCPU box (see README), so it is measured as a per-layer shadow only.

const serveSites = 9

// serveConfig is everything that distinguishes the serving workloads.
type serveConfig struct {
	graph      func() *graph.Graph
	readShare  float64 // share of reads in the mix, and the α the optimizers see
	sweepEvery int     // a full DaemonStep sweep runs before every sweepEvery-th operation
	resolve    bool    // daemon re-solves the strategy on suspicion edges
	churn      *faults.ChurnConfig
	amnesia    float64 // share of site repairs that come back with a wiped disk
}

var (
	readHeavy  = serveConfig{graph: completeNine, readShare: 0.9, sweepEvery: 128}
	writeHeavy = serveConfig{graph: completeNine, readShare: 0.1, sweepEvery: 256}
	churnMix   = serveConfig{
		graph:      func() *graph.Graph { return topo.Build(serveSites, serveSites) },
		readShare:  0.75,
		sweepEvery: 8,
		resolve:    true,
		churn:      &faults.ChurnConfig{SiteMTBF: 400, SiteMTTR: 25, LinkMTBF: 200, LinkMTTR: 25},
		amnesia:    0.1,
	}
)

func completeNine() *graph.Graph { return graph.Complete(serveSites) }

// Schedule encoding: one byte an operation, coordinator in the low nibble.
const schedWrite = 0x80

// topoEvent is one pre-generated topology change, applied before the
// operation whose index is step.
type topoEvent struct {
	step int32
	ev   faults.ChurnEvent
	wipe bool
}

// variant switches one public toggle of the cluster for the A/B probes that
// size a layer the harness cannot call directly.
type variant struct {
	noDurable, noWire, noStrategy bool
	observer                      func() *obs.Registry // nil: the counting registry
	async                         bool                 // cluster.Async instead of cluster.Cluster
}

// servingRuntime is what a serving repetition needs of either runtime.
type servingRuntime interface {
	cluster.SoakRuntime
	SetObserver(*obs.Registry)
	DisablePersistence()
	InstallStrategy(st strategy.Strategy, assign quorum.Assignment, version int64, budget int, seed uint64) error
	NodeAssignment(x int) quorum.Assignment
	StrategyCounters() stats.StrategyCounters
	StoreCounters(x int) store.Counters
}

type serveRun struct {
	cfg    serveConfig
	c      servingRuntime
	det    *cluster.Cluster // c when it is the deterministic runtime, for Stats
	close  func()
	sched  []byte
	events []topoEvent
	nextEv int
	tr     *tracer

	value, lastValue, lastStamp int64

	log    *history.Log // warm-up pass only
	dig    digest
	tal    serveTally
	base   serveTally
	schedS float64
}

// serveTally holds the running totals a repetition reports; the counts of
// the timed region are the difference between two of them.
type serveTally struct {
	reads, writes, granted, denied int64
	events                         int64
	stats                          cluster.Stats
	stores                         store.Counters
	strat                          stats.StrategyCounters
	health                         stats.HealthCounters
}

// bootStrategy solves and certifies the f=1 capacity strategy the cluster
// serves from: the same solver call, tolerance and budget the daemon uses
// when it re-solves.
func bootStrategy(readShare float64) (strategy.Strategy, error) {
	votes := make([]int, serveSites)
	ones := make([]float64, serveSites)
	for i := range votes {
		votes[i], ones[i] = 1, 1
	}
	a := quorum.Majority(serveSites)
	sys := strategy.System{Votes: votes, QR: a.QR, QW: a.QW, ReadCap: ones, WriteCap: ones, Latency: ones}
	res, err := strategy.OptimizeResilientCapacity(sys, strategy.SingleFr(readShare), 1, strategy.Options{})
	if err != nil {
		return strategy.Strategy{}, err
	}
	if err := res.Certify(certTol); err != nil {
		return strategy.Strategy{}, err
	}
	return res.Strategy, nil
}

func newServeRun(cfg serveConfig, v variant, seed uint64, total int, tr *tracer) (*serveRun, error) {
	g := cfg.graph()
	r := &serveRun{cfg: cfg, tr: tr, log: &history.Log{}, dig: fnvOffset, close: func() {}}
	if v.async {
		a, err := cluster.NewAsync(graph.NewState(g, nil), quorum.Majority(serveSites))
		if err != nil {
			return nil, err
		}
		r.c, r.close = a, a.Close
	} else {
		det, err := cluster.New(graph.NewState(g, nil), quorum.Majority(serveSites))
		if err != nil {
			return nil, err
		}
		det.SetWireMode(!v.noWire)
		r.c, r.det = det, det
	}
	c := r.c
	if v.noDurable {
		c.DisablePersistence()
	}
	if v.observer != nil {
		c.SetObserver(v.observer())
	} else {
		c.SetObserver(obs.New())
	}

	if !v.noStrategy {
		st, err := bootStrategy(cfg.readShare)
		if err != nil {
			return nil, fmt.Errorf("boot solve: %w", err)
		}
		if err := c.InstallStrategy(st, c.NodeAssignment(0), c.NodeVersion(0), 3, seed); err != nil {
			return nil, fmt.Errorf("install strategy: %w", err)
		}
	}
	health := cluster.DefaultHealthConfig()
	health.Alpha = cfg.readShare
	health.Strategy = cluster.StrategyResolveConfig{Enabled: cfg.resolve, Resilience: 1, Seed: seed}
	c.EnableSelfHealing(health)

	t0 := time.Now()
	r.sched = mixSchedule(seed, total, cfg.readShare)
	if cfg.churn != nil {
		r.events = churnSchedule(seed, total, g, *cfg.churn, cfg.amnesia)
	}
	r.schedS = time.Since(t0).Seconds()
	return r, nil
}

// mixSchedule draws coordinator and kind of every operation from the seed.
func mixSchedule(seed uint64, total int, readShare float64) []byte {
	src := rng.New(seed ^ 0x50ac)
	sched := make([]byte, total)
	for i := range sched {
		b := byte(src.Intn(serveSites))
		if src.Float64() >= readShare {
			b |= schedWrite
		}
		sched[i] = b
	}
	return sched
}

// churnSchedule runs the renewal processes over the whole horizon once and
// records their events, so the timed region applies topology changes
// without generating them.
func churnSchedule(seed uint64, total int, g *graph.Graph, cfg faults.ChurnConfig, amnesia float64) []topoEvent {
	churn := faults.NewChurn(seed, g.N(), g.M(), cfg)
	wipes := rng.New(seed ^ 0xa31e)
	var events []topoEvent
	for i := 0; i < total; i++ {
		for _, ev := range churn.Step(float64(i)) {
			wipe := ev.Kind == faults.SiteRepair && wipes.Float64() < amnesia
			events = append(events, topoEvent{step: int32(i), ev: ev, wipe: wipe})
		}
	}
	return events
}

func (r *serveRun) scheduleSeconds() float64 { return r.schedS }

func (r *serveRun) apply(e topoEvent) {
	switch e.ev.Kind {
	case faults.SiteFail:
		r.c.FailSite(e.ev.Index)
	case faults.SiteRepair:
		if e.wipe {
			// The machine came back blank: wipe before the repair so the
			// node rejoins by state transfer.
			r.c.WipeState(e.ev.Index)
		}
		r.c.RepairSite(e.ev.Index)
	case faults.LinkFail:
		r.c.FailLink(e.ev.Index)
	case faults.LinkRepair:
		r.c.RepairLink(e.ev.Index)
	}
	r.tal.events++
}

// step applies the topology events due, runs the daemon sweep when one is
// due, then serves one read or write and checks it as a register: a single
// sequential client makes one-copy serializability exactly "every granted
// read returns the value and stamp of the latest granted write, and granted
// stamps strictly increase".
func (r *serveRun) step(i int) bool {
	tr := r.tr
	root := tr.begin(i, spOp, -1)
	if r.nextEv < len(r.events) && int(r.events[r.nextEv].step) == i {
		sp := tr.begin(i, spTopology, root)
		for r.nextEv < len(r.events) && int(r.events[r.nextEv].step) == i {
			r.apply(r.events[r.nextEv])
			r.nextEv++
		}
		tr.end(sp)
	}
	if i%r.cfg.sweepEvery == 0 {
		sp := tr.begin(i, spSweep, root)
		for x := 0; x < serveSites; x++ {
			r.c.DaemonStep(x)
		}
		tr.end(sp)
	}
	s := r.sched[i]
	x := int(s &^ schedWrite)
	ok := true
	var out cluster.Outcome
	if s&schedWrite != 0 {
		r.value++
		sp := tr.begin(i, spWrite, root)
		out = r.c.ServeWrite(x, r.value)
		tr.end(sp)
		r.tal.writes++
		if out.Granted {
			ok = out.Stamp > r.lastStamp && out.Value == r.value
			r.lastValue, r.lastStamp = r.value, out.Stamp
		}
		if r.log != nil {
			r.log.RecordWrite(x, out.Granted, r.value, out.Stamp, float64(i))
		}
	} else {
		sp := tr.begin(i, spRead, root)
		out = r.c.ServeRead(x)
		tr.end(sp)
		r.tal.reads++
		if out.Granted {
			ok = out.Value == r.lastValue && out.Stamp == r.lastStamp
		}
		if r.log != nil {
			r.log.RecordRead(x, out.Granted, out.Value, out.Stamp, float64(i))
		}
	}
	if out.Granted {
		r.tal.granted++
		r.dig.word(uint64(out.Stamp))
		r.dig.word(uint64(out.Value))
	} else {
		// Only injected faults may deny an operation.
		ok = r.cfg.churn != nil && out.Err != nil
		r.tal.denied++
		r.dig.word(^uint64(i))
	}
	tr.end(root)
	return ok
}

func (r *serveRun) snapshot() serveTally {
	t := r.tal
	if r.det != nil {
		t.stats = r.det.Stats()
	}
	t.strat, t.health = r.c.StrategyCounters(), r.c.HealthCounters()
	for x := 0; x < serveSites; x++ {
		sc := r.c.StoreCounters(x)
		t.stores.Appends += sc.Appends
		t.stores.Syncs += sc.Syncs
		t.stores.Snapshots += sc.Snapshots
	}
	return t
}

func (r *serveRun) endWarmup() error {
	if err := r.log.Check(); err != nil {
		return err
	}
	r.log = nil
	r.base = r.snapshot()
	return nil
}

func (r *serveRun) tally() ([]count, uint64) {
	now, b := r.snapshot(), r.base
	return []count{
		{"reads", now.reads - b.reads},
		{"writes", now.writes - b.writes},
		{"granted", now.granted - b.granted},
		{"denied", now.denied - b.denied},
		{"topology_events", now.events - b.events},
		{"msgs_sent", now.stats.Sent - b.stats.Sent},
		{"msgs_dropped", now.stats.Dropped - b.stats.Dropped},
		{"store_appends", now.stores.Appends - b.stores.Appends},
		{"store_syncs", now.stores.Syncs - b.stores.Syncs},
		{"store_snapshots", now.stores.Snapshots - b.stores.Snapshots},
		{"sampled", now.strat.SampledReads + now.strat.SampledWrites - b.strat.SampledReads - b.strat.SampledWrites},
		{"resamples", now.strat.Resamples - b.strat.Resamples},
		{"fallbacks", now.strat.Fallbacks - b.strat.Fallbacks},
		{"stale_fallbacks", now.strat.StaleFallbacks - b.strat.StaleFallbacks},
		{"resolves", now.strat.Resolves - b.strat.Resolves},
		{"resolve_fails", now.strat.ResolveFails - b.strat.ResolveFails},
		{"reassigns", now.health.DaemonReassigns - b.health.DaemonReassigns},
		{"suspicions", now.health.Suspicions - b.health.Suspicions},
		{"degraded_rejects", now.health.DegradedReads + now.health.DegradedWrites - b.health.DegradedReads - b.health.DegradedWrites},
	}, uint64(r.dig)
}

func serveWorkload(name, why string, ops int, cfg serveConfig) *workload {
	return &workload{name: name, why: why, ops: ops,
		newRun: func(seed uint64, warm, ops int, tr *tracer) (runner, error) {
			return newServeRun(cfg, variant{}, seed, warm+ops, tr)
		}}
}
