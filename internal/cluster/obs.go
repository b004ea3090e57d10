package cluster

import (
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
)

// Observability wiring. A nil registry (the default)
// keeps every hot path on a single predictable branch; attaching one adds
// counters, per-round message histograms, and — when the registry traces —
// structured protocol events. Instrumentation is strictly write-only:
// nothing here reads back into protocol decisions, which is what the
// metamorphic suite (metamorphic_test.go) verifies end to end.
//
// Trace-event conventions: decision events from the idealized operations
// carry the collected vote total in A; decision events from the hardened
// (chaos) operations are emitted at outcome level with A = −1, since a
// retried operation has no single vote total. Message-level events are
// emitted by the deterministic runtime only — the concurrent runtime's
// delivery order is scheduler-dependent, so its trace records the
// serialized decision level, which is the level the two runtimes can be
// cross-checked at.

// SetObserver attaches an observability registry (nil: observation off).
// Attach a runtime to a registry once, while no operation is in flight; a
// registry may serve any number of runtimes, and reports their sum. The
// registry counts what nothing else counts as it happens, and collects the
// typed counters (ChaosCounters, HealthCounters, StrategyCounters, Stats,
// PartitionDrops, StoreCounters) at each snapshot, reporting what they grew
// by since this call. So a counter the registry collects never goes back as
// long as none of them does. Enabling a feature after attaching is fine,
// since its counters start at zero; re-enabling self-healing, which starts
// them afresh, or DisablePersistence, which drops the stores, is not, and
// no caller does either after SetObserver.
func (k *coordinator) SetObserver(r *obs.Registry) {
	k.obs = r
	r.Collect(k.report)
}

// report adds the typed counters into acc, each under the CounterID it is
// exposed as, plus the four gauges that are differences of them. It reads
// them in the operation slot, and each store under its node's lock, so a
// snapshot taken on another goroutine is race-free.
func (k *coordinator) report(acc *obs.Registry) {
	defer k.tr.enter(false)()
	t, f := k.tr.traffic(), &k.faultCounts
	acc.Add(obs.CMsgSent, t.Sent)
	acc.Add(obs.CMsgDelivered, t.Delivered)
	acc.Add(obs.CMsgDropped, t.Dropped)
	acc.Add(obs.CRetry, f.Retries)
	acc.Add(obs.CCrash, f.Crashes)
	acc.Add(obs.CRecovery, f.Recoveries)
	acc.Add(obs.CAmnesia, f.Amnesias)
	acc.Add(obs.CRejoin, f.Rejoins)
	acc.AddGauge(obs.GCrashedNodes, f.Crashes-f.Recoveries)
	acc.AddGauge(obs.GAmnesiacNodes, f.Amnesias-f.Rejoins)
	acc.Add(obs.CPartitionDrop, k.links.drops.Load())
	if h := k.health; h != nil {
		c := &h.counters
		acc.Add(obs.CLateAck, c.LateAcks)
		acc.Add(obs.CSuspect, c.Suspicions)
		acc.Add(obs.CUnsuspect, c.Unsuspicions)
		acc.Add(obs.CDegrade, c.Degradations)
		acc.Add(obs.CHeal, c.Healings)
		acc.Add(obs.CDegradedReject, c.DegradedReads+c.DegradedWrites)
		acc.Add(obs.CDaemonReassign, c.DaemonReassigns)
		acc.Add(obs.CSyncRound, c.SyncRounds)
		acc.AddGauge(obs.GSuspectedPeers, c.Suspicions-c.Unsuspicions)
		acc.AddGauge(obs.GDegradedNodes, c.Degradations-c.Healings)
	}
	if s := k.strat; s != nil {
		c := &s.counters
		acc.Add(obs.CStrategyRead, c.SampledReads)
		acc.Add(obs.CStrategyWrite, c.SampledWrites)
		acc.Add(obs.CStrategyResample, c.Resamples)
		acc.Add(obs.CStrategyFallback, c.Fallbacks)
		acc.Add(obs.CStrategyResolve, c.Resolves)
	}
	for x := range k.all {
		if s := k.tr.lock(x).store; s != nil {
			c := s.Counters()
			acc.Add(obs.CStoreAppend, c.Appends)
			acc.Add(obs.CStoreSync, c.Syncs)
			acc.Add(obs.CStoreSnapshot, c.Snapshots)
			acc.Add(obs.CStoreTruncRepair, c.TruncateRepairs)
			acc.Add(obs.CStoreCorrupt, c.CorruptRecoveries)
		}
		k.tr.unlock(x)
	}
}

// Observer returns the attached registry (nil when instrumentation is off).
func (k *coordinator) Observer() *obs.Registry { return k.obs }

// observeMsg traces one message transport event in the deterministic
// runtime: a branch, inlined into every send, delivery and drop, that is
// false unless the registry traces. The message counters are not touched
// here: the runtime keeps them in its Stats, which the registry collects
// at snapshot time.
func (c *Cluster) observeMsg(ev obs.EventType, m message) {
	if c.obs.Tracing() {
		c.traceMsg(ev, m)
	}
}

// traceMsg is observeMsg's event, out of line.
func (c *Cluster) traceMsg(ev obs.EventType, m message) {
	c.obs.Emit(ev, m.from, m.to, int64(stageOf(c.bodies[m.body].tag)), 0)
}

// decisionCounter maps an operation kind and verdict to its counter.
func decisionCounter(op OpKind, granted bool) obs.CounterID {
	switch op {
	case OpRead:
		if granted {
			return obs.CReadGrant
		}
		return obs.CReadDeny
	case OpWrite:
		if granted {
			return obs.CWriteGrant
		}
		return obs.CWriteDeny
	default:
		if granted {
			return obs.CReassignGrant
		}
		return obs.CReassignDeny
	}
}

// observeDecision records one idealized vote-collection verdict: the
// grant/deny counter plus a trace event carrying the vote total and, for
// grants, the stamp (denials carry the quorum missed).
func observeDecision(r *obs.Registry, op OpKind, x, votes int, granted bool, b int64) {
	if r == nil {
		return
	}
	r.Inc(decisionCounter(op, granted))
	ev := obs.EvQuorumDeny
	if granted {
		ev = obs.EvQuorumGrant
	}
	r.Emit(ev, int32(x), int32(op), int64(votes), b)
}

// observeOutcome records one hardened operation's final outcome (reads and
// writes; reassignments instrument inline so the install event carries the
// new assignment).
func observeOutcome(r *obs.Registry, op OpKind, x int, out Outcome) {
	if r == nil {
		return
	}
	r.Inc(decisionCounter(op, out.Granted))
	if out.Granted {
		r.Emit(obs.EvQuorumGrant, int32(x), int32(op), -1, out.Stamp)
	} else {
		r.Emit(obs.EvQuorumDeny, int32(x), int32(op), -1, 0)
	}
}

// observeInstall records an installed reassignment: counter, epoch
// high-water mark, and the install trace event with the packed assignment.
func observeInstall(r *obs.Registry, x int, version int64, a quorum.Assignment) {
	if r == nil {
		return
	}
	r.Inc(obs.CReassignGrant)
	r.MaxGauge(obs.GQuorumEpoch, version)
	r.Emit(obs.EvReassignInstall, int32(x), -1, version, packAssign(a))
}

// packAssign encodes an assignment into one trace field as QR<<32 | QW.
func packAssign(a quorum.Assignment) int64 {
	return int64(a.QR)<<32 | int64(a.QW)
}
