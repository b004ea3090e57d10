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
// metamorphic suite (obs_metamorphic_test.go) verifies end to end.
//
// Trace-event conventions: decision events from the idealized operations
// carry the collected vote total in A; decision events from the hardened
// (chaos) operations are emitted at outcome level with A = −1, since a
// retried operation has no single vote total. Message-level events are
// emitted by the deterministic runtime only — the concurrent runtime's
// delivery order is scheduler-dependent, so its trace records the
// serialized decision level, which is the level the two runtimes can be
// cross-checked at.

// SetObserver attaches (or, with nil, detaches) an observability registry.
// Call it before driving operations; it also rewires an already-enabled
// self-healing layer.
func (k *coordinator) SetObserver(r *obs.Registry) {
	k.obs = r
	if k.health != nil {
		k.health.obs = r
	}
	for x := range k.all {
		if s := k.tr.lock(x).store; s != nil {
			s.SetObserver(r)
		}
		k.tr.unlock(x)
	}
}

// Observer returns the attached registry (nil when instrumentation is off).
func (k *coordinator) Observer() *obs.Registry { return k.obs }

// observeMsg traces one message transport event in the deterministic
// runtime. The message counters are not touched here: the runtime keeps
// them in its own Stats and drain publishes the difference once, so that
// after every operation the obs counters equal Stats field for field.
func (c *Cluster) observeMsg(ev obs.EventType, m *message) {
	if c.obs.Tracing() {
		c.obs.Emit(ev, int32(m.from), int32(m.to), int64(stageOf(m.body.tag)), 0)
	}
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

// observeRetry records one retry decision and the backoff it chose.
func observeRetry(r *obs.Registry, x, attempt int, ticks int64) {
	if r == nil {
		return
	}
	r.Inc(obs.CRetry)
	r.Emit(obs.EvRetry, int32(x), -1, int64(attempt), ticks)
}

// observeCrash records an injected coordinator crash.
func observeCrash(r *obs.Registry, x int) {
	if r == nil {
		return
	}
	r.Inc(obs.CCrash)
	r.AddGauge(obs.GCrashedNodes, 1)
	r.Emit(obs.EvCrash, int32(x), -1, 0, 0)
}

// observeRecover records a crashed node rejoining.
func observeRecover(r *obs.Registry, x int) {
	if r == nil {
		return
	}
	r.Inc(obs.CRecovery)
	r.AddGauge(obs.GCrashedNodes, -1)
	r.Emit(obs.EvRecover, int32(x), -1, 0, 0)
}
