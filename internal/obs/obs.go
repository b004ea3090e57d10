// Package obs is the observability substrate of the protocol runtimes and
// the simulator: allocation-light atomic counters and gauges, fixed-bucket
// histograms, and a ring-buffer structured event tracer, all collected into
// a Registry that can be snapshotted, diffed, and rendered as a
// Prometheus-style text exposition or a JSONL protocol trace.
//
// Two properties shape the design:
//
//   - Observation never perturbs behaviour. Every instrument is
//     write-only from the instrumented code's point of view: no method
//     draws randomness, mutates protocol state, blocks, or allocates on
//     the hot path. The metamorphic suite in internal/cluster verifies
//     that instrumented and uninstrumented runs of the same seed produce
//     byte-identical histories and final states.
//
//   - The no-op default is free. All Registry methods are nil-safe: a nil
//     *Registry is the "instrumentation off" configuration, so threading
//     obs through a runtime costs one predictable branch per call site
//     and nothing else. BenchmarkNilRegistryInc measures that branch;
//     the end-to-end benchmark's obs.counting_overhead_pct and
//     obs.tracing_overhead_pct (bench/) measure the registry switched on.
//
// Counters, gauges and histograms are identified by dense enums rather
// than strings, so an increment is a single array-indexed atomic add —
// no map lookups, no locks, no allocation.
package obs

import "sync/atomic"

// CounterID enumerates the well-known monotonic counters.
type CounterID uint8

// Counters. Message-level traffic, quorum decisions, fault-hardening
// outcomes, self-healing verdicts, and simulator events share one
// namespace so a single snapshot describes a whole run.
const (
	// Message transport.
	CMsgSent CounterID = iota
	CMsgDelivered
	CMsgDropped

	// Quorum decisions (vote-collection rounds at the coordinator).
	CReadGrant
	CReadDeny
	CWriteGrant
	CWriteDeny
	CReassignGrant
	CReassignDeny

	// Fault hardening.
	CRetry
	CCrash
	CRecovery

	// Self-healing.
	CSuspect
	CUnsuspect
	CDegrade
	CHeal
	CDegradedReject
	CDaemonReassign
	CSyncRound

	// Discrete-event simulator.
	CSimAccessGrant
	CSimAccessDeny
	CSimSiteFail
	CSimSiteRepair
	CSimLinkFail
	CSimLinkRepair

	// Durable store (internal/store) and amnesiac recovery.
	CStoreAppend
	CStoreSync
	CStoreSnapshot
	CStoreTruncRepair
	CStoreCorrupt
	CAmnesia
	CRejoin

	// Adversarial scenario engine: partition transport and regret harness.
	CPartitionDrop
	CMinorityWrite

	// Gray-failure engine: hedged quorum reads and detector verdicts
	// cross-checked against ground truth.
	CHedgeProbe
	CHedgeWin
	CSuspicionFalsePositive
	CLateAck

	// Probabilistic quorum strategies: accesses served by a sampled
	// quorum, and the per-site probe fan-out they induce (the load the
	// LP optimizer balances).
	CStrategyRead
	CStrategyWrite
	CStrategyDeny
	CStrategyProbe

	// Strategy serving under adversity: sampled quorums that missed a
	// member and were redrawn, operations that exhausted the resample
	// budget (or found the strategy stale) and fell back to the
	// deterministic assignment, and daemon re-solves that installed a
	// certified survivor-restricted strategy.
	CStrategyResample
	CStrategyFallback
	CStrategyResolve

	numCounters
)

// counterNames maps CounterID to the Prometheus metric name. Indexed by
// CounterID; order must match the const block above.
var counterNames = [numCounters]string{
	"quorumkit_msgs_sent_total",
	"quorumkit_msgs_delivered_total",
	"quorumkit_msgs_dropped_total",
	"quorumkit_reads_granted_total",
	"quorumkit_reads_denied_total",
	"quorumkit_writes_granted_total",
	"quorumkit_writes_denied_total",
	"quorumkit_reassigns_granted_total",
	"quorumkit_reassigns_denied_total",
	"quorumkit_op_retries_total",
	"quorumkit_crashes_total",
	"quorumkit_recoveries_total",
	"quorumkit_suspicions_total",
	"quorumkit_unsuspicions_total",
	"quorumkit_degradations_total",
	"quorumkit_healings_total",
	"quorumkit_degraded_rejects_total",
	"quorumkit_daemon_reassigns_total",
	"quorumkit_sync_rounds_total",
	"quorumkit_sim_accesses_granted_total",
	"quorumkit_sim_accesses_denied_total",
	"quorumkit_sim_site_fails_total",
	"quorumkit_sim_site_repairs_total",
	"quorumkit_sim_link_fails_total",
	"quorumkit_sim_link_repairs_total",
	"quorumkit_store_appends_total",
	"quorumkit_store_syncs_total",
	"quorumkit_store_snapshots_total",
	"quorumkit_store_truncate_repairs_total",
	"quorumkit_store_corrupt_recoveries_total",
	"quorumkit_amnesias_total",
	"quorumkit_amnesiac_rejoins_total",
	"quorumkit_partition_drops_total",
	"quorumkit_minority_writes_total",
	"quorumkit_hedge_probes_total",
	"quorumkit_hedge_wins_total",
	"quorumkit_suspicion_false_positive_total",
	"quorumkit_late_acks_total",
	"quorumkit_strategy_reads_total",
	"quorumkit_strategy_writes_total",
	"quorumkit_strategy_denies_total",
	"quorumkit_strategy_probe_sites_total",
	"quorumkit_strategy_resamples_total",
	"quorumkit_strategy_fallbacks_total",
	"quorumkit_strategy_resolves_total",
}

// Name returns the exposition name of a counter.
func (c CounterID) Name() string { return counterNames[c] }

// GaugeID enumerates the instantaneous gauges.
type GaugeID uint8

// Gauges.
const (
	// GSuspectedPeers is the number of (node, peer) suspicion edges
	// currently held across all detector views.
	GSuspectedPeers GaugeID = iota
	// GDegradedNodes is the number of nodes currently in a non-healthy
	// service mode.
	GDegradedNodes
	// GCrashedNodes is the number of nodes currently down due to an
	// injected crash.
	GCrashedNodes
	// GQuorumEpoch is the highest assignment version any instrumented
	// runtime has installed.
	GQuorumEpoch
	// GAmnesiacNodes is the number of nodes currently awaiting a
	// state-transfer rejoin after losing their durable state.
	GAmnesiacNodes

	numGauges
)

var gaugeNames = [numGauges]string{
	"quorumkit_suspected_peers",
	"quorumkit_degraded_nodes",
	"quorumkit_crashed_nodes",
	"quorumkit_quorum_epoch",
	"quorumkit_amnesiac_nodes",
}

// Name returns the exposition name of a gauge.
func (g GaugeID) Name() string { return gaugeNames[g] }

// HistID enumerates the fixed-bucket histograms.
type HistID uint8

// Histograms. The deterministic runtime has no clock, so its "latency"
// unit is messages per operation round; the concurrent runtime records
// wall nanoseconds as well.
const (
	// HReadMsgs: messages sent per read round.
	HReadMsgs HistID = iota
	// HWriteMsgs: messages sent per write round.
	HWriteMsgs
	// HOpNanos: wall-clock nanoseconds per serving-layer operation
	// (concurrent runtime only; inherently non-deterministic).
	HOpNanos
	// HPhi: per-site φ-accrual suspicion levels, in centi-φ (φ × 100),
	// observed at every detector evaluation. Deterministic on the
	// deterministic runtime: φ is a pure function of the latency schedule.
	HPhi
	// HGrayReadSlots: modeled end-to-end read completion latency in
	// delivery slots (gray read path, hedged or not).
	HGrayReadSlots

	numHists
)

var histNames = [numHists]string{
	"quorumkit_read_round_msgs",
	"quorumkit_write_round_msgs",
	"quorumkit_op_nanos",
	"quorumkit_phi_centi",
	"quorumkit_gray_read_slots",
}

// Name returns the exposition name of a histogram.
func (h HistID) Name() string { return histNames[h] }

// Registry is one collection surface: a fixed array of atomic counters and
// gauges, a fixed array of histograms, and an optional tracer. The zero
// value is ready to use; the nil value is the no-op configuration.
type Registry struct {
	counters [numCounters]atomic.Int64
	gauges   [numGauges]atomic.Int64
	hists    [numHists]Hist
	trace    *Trace
}

// New returns an empty registry with tracing disabled.
func New() *Registry { return &Registry{} }

// NewTracing returns a registry with a ring-buffer tracer of the given
// capacity attached.
func NewTracing(traceCap int) *Registry {
	r := New()
	r.trace = NewTrace(traceCap)
	return r
}

// Inc increments counter c by one. Nil-safe.
func (r *Registry) Inc(c CounterID) {
	if r == nil {
		return
	}
	r.counters[c].Add(1)
}

// Add increments counter c by d. Nil-safe.
func (r *Registry) Add(c CounterID, d int64) {
	if r == nil {
		return
	}
	r.counters[c].Add(d)
}

// Counter returns the current value of counter c (0 on nil).
func (r *Registry) Counter(c CounterID) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c].Load()
}

// SetGauge sets gauge g to v. Nil-safe.
func (r *Registry) SetGauge(g GaugeID, v int64) {
	if r == nil {
		return
	}
	r.gauges[g].Store(v)
}

// AddGauge adjusts gauge g by d. Nil-safe.
func (r *Registry) AddGauge(g GaugeID, d int64) {
	if r == nil {
		return
	}
	r.gauges[g].Add(d)
}

// MaxGauge raises gauge g to v if v is larger (monotone high-water mark).
// Nil-safe.
func (r *Registry) MaxGauge(g GaugeID, v int64) {
	if r == nil {
		return
	}
	for {
		cur := r.gauges[g].Load()
		if v <= cur || r.gauges[g].CompareAndSwap(cur, v) {
			return
		}
	}
}

// Gauge returns the current value of gauge g (0 on nil).
func (r *Registry) Gauge(g GaugeID) int64 {
	if r == nil {
		return 0
	}
	return r.gauges[g].Load()
}

// Observe records value v into histogram h. Nil-safe.
func (r *Registry) Observe(h HistID, v int64) {
	if r == nil {
		return
	}
	r.hists[h].Observe(v)
}

// Emit appends a structured event to the tracer, if one is attached.
// Nil-safe, and a no-op on a non-tracing registry.
func (r *Registry) Emit(t EventType, node, peer int32, a, b int64) {
	if r == nil || r.trace == nil {
		return
	}
	r.trace.emit(t, node, peer, a, b)
}

// Tracing reports whether a tracer is attached (false on nil).
func (r *Registry) Tracing() bool { return r != nil && r.trace != nil }

// Trace returns the attached tracer (nil when tracing is disabled).
func (r *Registry) Trace() *Trace {
	if r == nil {
		return nil
	}
	return r.trace
}
