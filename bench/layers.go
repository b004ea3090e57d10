package main

import (
	"fmt"
	"sort"
	"time"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
	"quorumkit/internal/sim"
	"quorumkit/internal/stats"
	"quorumkit/internal/store"
	"quorumkit/internal/strategy"
	"quorumkit/internal/topo"
)

// perLayer lists every per-layer metric a traced run reports, in print
// order. The prefix is the internal/ package the number belongs to. They
// come from three places, all outside the program:
//
//   - spans the harness records around its own calls into a layer, and
//     exact counters the layer already exposes (zero on a workload that
//     never enters the layer);
//   - A/B runs of one serving schedule with one public switch flipped
//     (DisablePersistence, SetWireMode, SetObserver, no InstallStrategy),
//     for layers the harness cannot call directly;
//   - direct probes of a layer's public functions, which read the same on
//     every workload.
var perLayer = []struct{ name, unit string }{
	{"cluster.read_p50_us", "us"},
	{"cluster.read_p99_us", "us"},
	{"cluster.write_p50_us", "us"},
	{"cluster.write_p99_us", "us"},
	{"cluster.daemon_sweep_p50_us", "us"},
	{"cluster.daemon_sweep_p99_us", "us"},
	{"cluster.daemon_share", "ratio"},
	{"cluster.topology_event_ns", "ns"},
	{"cluster.msgs_per_op", "1/op"},
	{"cluster.dropped_per_op", "1/op"},
	{"cluster.denied_share", "ratio"},
	{"cluster.sampled_share", "ratio"},
	{"cluster.resamples_per_op", "1/op"},
	{"cluster.fallback_share", "ratio"},
	{"cluster.stale_fallback_share", "ratio"},
	{"cluster.degraded_reject_share", "ratio"},
	{"cluster.resolves", "count"},
	{"cluster.resolve_fails", "count"},
	{"cluster.reassigns", "count"},
	{"cluster.suspicions", "count"},
	{"cluster.durable_overhead_pct", "%"},
	{"cluster.wire_overhead_pct", "%"},
	{"cluster.strategy_overhead_pct", "%"},
	{"cluster.async.ops_per_s", "ops/s"},
	{"cluster.async.op_p50_us", "us"},
	{"cluster.async.op_p99_us", "us"},
	{"store.appends_per_write", "1/op"},
	{"store.syncs_per_write", "1/op"},
	{"store.snapshots", "count"},
	{"store.append_ns", "ns"},
	{"store.sync_ns", "ns"},
	{"store.recover_us", "us"},
	{"strategy.sample_ns", "ns"},
	{"strategy.boot_solve_ms", "ms"},
	{"strategy.solve_small_p50_us", "us"},
	{"strategy.solve_large_p50_ms", "ms"},
	{"strategy.solve_share", "ratio"},
	{"strategy.certify_share", "ratio"},
	{"strategy.cg_rounds_per_solve", "1/op"},
	{"strategy.cg_columns_per_solve", "1/op"},
	{"sim.collect_share", "ratio"},
	{"sim.measure_share", "ratio"},
	{"sim.access_ns", "ns"},
	{"sim.new_us", "us"},
	{"core.optimize_share", "ratio"},
	{"core.optimize_us", "us"},
	{"core.curve_ns", "ns"},
	{"graph.flap_ns", "ns"},
	{"faults.churn_step_ns", "ns"},
	{"obs.counting_overhead_pct", "%"},
	{"obs.tracing_overhead_pct", "%"},
	{"runtime.mallocs_per_op", "1/op"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_peak_mb", "MB"},
	{"harness.self_share", "ratio"},
	{"harness.timer_ns", "ns"},
	{"harness.schedule_gen_s", "s"},
	{"harness.trace_overhead_pct", "%"},
	{"harness.rep_spread_pct", "%"},
}

// layerMetrics assembles the per-layer metrics of one traced run: res is
// the untraced run, traced the same repetitions under spans.
func layerMetrics(res, traced *result, tr *tracer, probes map[string]float64) []metric {
	v := map[string]float64{}
	for k, x := range probes {
		v[k] = x
	}
	first := res.reps[0]
	cnt := func(name string) float64 {
		for _, c := range first.counts {
			if c.name == name {
				return float64(c.n)
			}
		}
		return 0
	}
	ops := float64(first.ops)
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Spans: percentiles of one call, and shares of the timed region.
	wall := make([]float64, len(traced.reps))
	for i, p := range traced.reps {
		wall[i] = p.wallS * 1e9
	}
	p50 := func(k kindStats) float64 { return float64(k.p50ns) / 1e3 }
	p99 := func(k kindStats) float64 { return float64(k.p99ns) / 1e3 }
	share := func(kind spanKind, self bool) float64 {
		s := make([]float64, len(tr.stats))
		for i := range tr.stats {
			ns := tr.stats[i][kind].totalNs
			if self {
				ns = tr.stats[i][kind].selfNs
			}
			s[i] = float64(ns) / wall[i]
		}
		return stats.Median(s)
	}
	v["cluster.read_p50_us"] = tr.medianOf(spRead, p50)
	v["cluster.read_p99_us"] = tr.medianOf(spRead, p99)
	v["cluster.write_p50_us"] = tr.medianOf(spWrite, p50)
	v["cluster.write_p99_us"] = tr.medianOf(spWrite, p99)
	v["cluster.daemon_sweep_p50_us"] = tr.medianOf(spSweep, p50)
	v["cluster.daemon_sweep_p99_us"] = tr.medianOf(spSweep, p99)
	v["cluster.daemon_share"] = share(spSweep, false)
	v["cluster.topology_event_ns"] = per(tr.medianOf(spTopology, func(k kindStats) float64 { return float64(k.totalNs) }), cnt("topology_events"))
	v["strategy.solve_share"] = share(spSolve, false)
	v["strategy.certify_share"] = share(spCertify, false)
	v["sim.collect_share"] = share(spCollect, false)
	v["sim.measure_share"] = share(spMeasure, false)
	v["core.optimize_share"] = share(spOptimize, false)
	v["harness.self_share"] = share(spOp, true) + share(spCheck, false)

	// Exact counters of the timed region.
	serving := cnt("reads") + cnt("writes")
	v["cluster.msgs_per_op"] = per(cnt("msgs_sent"), serving)
	v["cluster.dropped_per_op"] = per(cnt("msgs_dropped"), serving)
	v["cluster.denied_share"] = per(cnt("denied"), serving)
	v["cluster.sampled_share"] = per(cnt("sampled"), serving)
	v["cluster.resamples_per_op"] = per(cnt("resamples"), serving)
	v["cluster.fallback_share"] = per(cnt("fallbacks"), serving)
	v["cluster.stale_fallback_share"] = per(cnt("stale_fallbacks"), serving)
	v["cluster.degraded_reject_share"] = per(cnt("degraded_rejects"), serving)
	v["cluster.resolves"] = cnt("resolves")
	v["cluster.resolve_fails"] = cnt("resolve_fails")
	v["cluster.reassigns"] = cnt("reassigns")
	v["cluster.suspicions"] = cnt("suspicions")
	v["store.appends_per_write"] = per(cnt("store_appends"), cnt("writes"))
	v["store.syncs_per_write"] = per(cnt("store_syncs"), cnt("writes"))
	v["store.snapshots"] = cnt("store_snapshots")

	// The runtime and the harness itself, from the untraced repetitions.
	reps := func(f func(rep) float64) float64 {
		s := make([]float64, len(res.reps))
		for i, p := range res.reps {
			s[i] = f(p)
		}
		return stats.Median(s)
	}
	v["runtime.mallocs_per_op"] = reps(func(p rep) float64 { return float64(p.mem.mallocs) / ops })
	v["runtime.alloc_bytes_per_op"] = reps(func(p rep) float64 { return float64(p.mem.bytes) / ops })
	v["runtime.gc_cycles"] = reps(func(p rep) float64 { return float64(p.mem.gcCycles) })
	v["runtime.gc_pause_ms"] = reps(func(p rep) float64 { return float64(p.mem.gcPauseNs) / 1e6 })
	v["runtime.heap_peak_mb"] = reps(func(p rep) float64 { return float64(p.mem.heapPeak) / (1 << 20) })
	v["harness.schedule_gen_s"] = reps(func(p rep) float64 { return p.scheduS })
	rate, tracedRate := res.perRep("ops_per_s"), traced.perRep("ops_per_s")
	v["harness.trace_overhead_pct"] = 100 * (stats.Median(rate)/stats.Median(tracedRate) - 1)
	sorted := append([]float64(nil), rate...)
	sort.Float64s(sorted)
	v["harness.rep_spread_pct"] = 100 * (sorted[len(sorted)-1] - sorted[0]) / stats.Median(rate)

	out := make([]metric, len(perLayer))
	for i, m := range perLayer {
		x, ok := v[m.name]
		if !ok {
			panic("bench: per-layer metric never computed: " + m.name)
		}
		out[i] = metric{m.name, m.unit, x}
	}
	return out
}

// ---- direct probes and A/B runs -----------------------------------------

// probeRounds is how many times each probe repeats; it reports the median.
const probeRounds = 3

// perCall times n calls of f, probeRounds times, and returns the median
// nanoseconds per call.
func perCall(n int, f func(i int)) float64 {
	v := make([]float64, probeRounds)
	for r := range v {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		v[r] = float64(time.Since(t0)) / float64(n)
	}
	return stats.Median(v)
}

// sink takes a scalar of every probed call's result, so the compiler cannot
// drop the call and the probe pays for no interface conversion.
var sink int64

func runProbes(seed uint64) (map[string]float64, error) {
	v := map[string]float64{}
	t0 := time.Now()
	v["harness.timer_ns"] = perCall(1<<20, func(int) { sink += int64(time.Since(t0)) })

	if err := probeStore(v); err != nil {
		return nil, err
	}
	if err := probeStrategy(seed, v); err != nil {
		return nil, err
	}
	if err := probeSim(seed, v); err != nil {
		return nil, err
	}
	if err := probeServing(seed, v); err != nil {
		return nil, err
	}
	return v, nil
}

// probeStore sizes the storage engine on the in-memory disk the cluster
// uses, and asserts the durability contract: after a crash, recovery
// returns exactly the last synced state.
func probeStore(v map[string]float64) error {
	const n = 20_000
	s := store.Open(store.NewMemDisk(), 0)
	s.Reset(store.State{Version: 1, QR: 5, QW: 5}, nil)
	state := func(i int) store.State {
		return store.State{Value: int64(i), Stamp: int64(i), Version: 1, QR: 5, QW: 5}
	}
	stamp := 0
	pair := perCall(n, func(int) { stamp++; s.PutState(state(stamp)); s.Sync() })
	// Appends alone, synced once a round so the log cannot grow unbounded.
	appendNs := perCall(n, func(i int) {
		stamp++
		s.PutState(state(stamp))
		if i == n-1 {
			s.Sync()
		}
	})
	v["store.append_ns"] = appendNs
	v["store.sync_ns"] = pair - appendNs

	rec := make([]float64, probeRounds*3)
	for r := range rec {
		for k := 0; k < 40; k++ { // below the snapshot cadence: recovery replays a log
			stamp++
			s.PutState(state(stamp))
			s.Sync()
		}
		synced := state(stamp)
		s.PutState(state(stamp + 1)) // never synced: must not survive
		s.Crash()
		t0 := time.Now()
		got, _, err := s.Recover()
		rec[r] = float64(time.Since(t0)) / 1e3
		if err != nil {
			return fmt.Errorf("store probe: recover: %w", err)
		}
		if got != synced {
			return fmt.Errorf("store probe: recovered %+v, last synced state was %+v", got, synced)
		}
	}
	v["store.recover_us"] = stats.Median(rec)
	return nil
}

// probeStrategy times the sampler, the boot solve, and one block of the
// solve ladder with solve and certificate apart.
func probeStrategy(seed uint64, v map[string]float64) error {
	boot := make([]float64, probeRounds*3)
	var st strategy.Strategy
	for r := range boot {
		t0 := time.Now()
		var err error
		if st, err = bootStrategy(readHeavy.readShare); err != nil {
			return err
		}
		boot[r] = float64(time.Since(t0)) / 1e6
	}
	v["strategy.boot_solve_ms"] = stats.Median(boot)
	sp, src := strategy.NewSampler(st), rng.New(seed)
	v["strategy.sample_ns"] = perCall(1<<18, func(int) { sink += int64(len(sp.SampleRead(src))) })

	systems, resil := ladderSchedule(seed, 100)
	var small, large []float64
	var solveNs, certNs time.Duration
	var rounds, columns, nLarge int
	for i, sys := range systems {
		t0 := time.Now()
		res, err := strategy.OptimizeResilientCapacity(sys, strategy.SingleFr(0.75), int(resil[i]), strategy.Options{TargetGap: ladderGap})
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := res.Certify(certTol); err != nil {
			return err
		}
		t2 := time.Now()
		solveNs += t1.Sub(t0)
		certNs += t2.Sub(t1)
		if len(sys.Votes) >= ladderLargeFrom {
			large = append(large, float64(t2.Sub(t0))/1e6)
			rounds += res.Rounds
			columns += res.Generated
			nLarge++
		} else {
			small = append(small, float64(t2.Sub(t0))/1e3)
		}
	}
	v["strategy.solve_small_p50_us"] = stats.Median(small)
	v["strategy.solve_large_p50_ms"] = stats.Median(large)
	v["strategy.cg_rounds_per_solve"] = float64(rounds) / float64(nLarge)
	v["strategy.cg_columns_per_solve"] = float64(columns) / float64(nLarge)
	return nil
}

// probeSim times the pieces of the paper's pipeline and the fault engines
// on the paper's 101-site topologies.
func probeSim(seed uint64, v map[string]float64) error {
	p := sim.PaperParams()
	g16, g256 := topo.Paper(16), topo.Paper(256)
	v["sim.new_us"] = perCall(200, func(i int) { sink += sim.New(g256, nil, p, seed+uint64(i)).AccessCount() }) / 1e3

	s := sim.New(g16, nil, p, seed)
	s.SetProtocol(sim.StaticProtocol{Assignment: quorum.Majority(g16.N())}, 0.75)
	const accesses = 20_000
	v["sim.access_ns"] = perCall(1, func(int) { s.RunAccesses(accesses) }) / accesses

	m, _, err := sim.Collect(g16, nil, p, sim.CollectConfig{Mode: sim.TimeWeighted, Accesses: collectAccesses, Seed: seed})
	if err != nil {
		return err
	}
	v["core.optimize_us"] = perCall(20_000, func(int) { sink += int64(m.Optimize(0.75).Assignment.QR) }) / 1e3
	curve := make([]float64, m.T/2)
	v["core.curve_ns"] = perCall(20_000, func(int) { curve = m.CurveInto(0.75, curve) })

	st := graph.NewState(g16, nil)
	links := g16.M()
	v["graph.flap_ns"] = perCall(20_000, func(i int) { st.FailLink(i % links); st.RepairLink(i % links) })

	g := churnMix.graph()
	churn := faults.NewChurn(seed, g.N(), g.M(), *churnMix.churn)
	step := 0
	v["faults.churn_step_ns"] = perCall(100_000, func(int) { step++; sink += int64(len(churn.Step(float64(step)))) })
	return nil
}

// probeServing sizes the layers the harness cannot call directly by running
// one serving schedule with one public switch flipped, rounds interleaved
// so that a slow second hits every variant alike, and shadows the
// write-heavy schedule on the goroutine-per-node runtime.
func probeServing(seed uint64, v map[string]float64) error {
	const ops = 40_000
	lat := make([]int64, ops)
	// run returns ns per operation, and leaves the sorted intervals in lat.
	run := func(cfg serveConfig, vr variant) (float64, error) {
		r, err := newServeRun(cfg, vr, seed, ops, nil)
		if err != nil {
			return 0, err
		}
		defer r.close()
		r.log = nil
		start := time.Now()
		prev := int64(0)
		for i := 0; i < ops; i++ {
			if !r.step(i) {
				return 0, fmt.Errorf("serving probe %+v: operation %d failed its output check", vr, i)
			}
			now := int64(time.Since(start))
			lat[i] = now - prev
			prev = now
		}
		return float64(prev) / ops, nil
	}
	counting := variant{}
	for _, t := range []struct {
		metric  string
		cfg     serveConfig
		on, off variant
	}{
		{"cluster.durable_overhead_pct", writeHeavy, counting, variant{noDurable: true}},
		{"cluster.wire_overhead_pct", readHeavy, counting, variant{noWire: true}},
		{"cluster.strategy_overhead_pct", readHeavy, counting, variant{noStrategy: true}},
		{"obs.counting_overhead_pct", readHeavy, counting, variant{observer: func() *obs.Registry { return nil }}},
		// Tracing is an overhead over counting, not over nothing.
		{"obs.tracing_overhead_pct", readHeavy, variant{observer: func() *obs.Registry { return obs.NewTracing(1 << 16) }}, counting},
	} {
		on, off := make([]float64, probeRounds), make([]float64, probeRounds)
		for r := 0; r < probeRounds; r++ {
			var err error
			if on[r], err = run(t.cfg, t.on); err != nil {
				return err
			}
			if off[r], err = run(t.cfg, t.off); err != nil {
				return err
			}
		}
		v[t.metric] = 100 * (stats.Median(on)/stats.Median(off) - 1)
	}

	rate, p50, p99 := make([]float64, probeRounds), make([]float64, probeRounds), make([]float64, probeRounds)
	for r := 0; r < probeRounds; r++ {
		ns, err := run(writeHeavy, variant{async: true})
		if err != nil {
			return err
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		rate[r], p50[r], p99[r] = 1e9/ns, float64(percentile(lat, 50))/1e3, float64(percentile(lat, 99))/1e3
	}
	v["cluster.async.ops_per_s"] = stats.Median(rate)
	v["cluster.async.op_p50_us"] = stats.Median(p50)
	v["cluster.async.op_p99_us"] = stats.Median(p99)
	return nil
}
