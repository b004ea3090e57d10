// Package faults provides deterministic, seed-driven fault injection for
// the message-level quorum protocol runtimes in internal/cluster.
//
// Both runtimes reach faults through one seam, Source: the fate of each
// message, the crash point of each write attempt, and the jitter of each
// retry's backoff. Plan is its one production implementation. The central
// design decision is that every answer is a *pure function* of its key —
// for a message, (operation sequence, protocol stage, sender, receiver,
// attempt) — hashed together with the plan seed. Nothing depends on
// arrival order, wall-clock time, or which runtime asks. The same plan
// therefore injects the *same* drops, duplications and delays into the
// deterministic Cluster and the concurrent Async runtime, which is what
// makes cross-runtime fault schedules comparable and every run
// reproducible from its seed.
//
// The injected fault taxonomy (see DESIGN.md, "Fault model and recovery"):
//
//   - drop: the message is lost in transit and never delivered;
//   - duplicate: the message is delivered twice (receivers must dedup);
//   - reorder: the message jumps ahead of earlier queued traffic;
//   - delay: delivery is postponed by a bounded number of slots (or, in
//     the concurrent runtime, a bounded real delay);
//   - coordinator crash: the coordinator of a vote-collection round fails
//     at a chosen point — before quorum, after quorum but before apply, or
//     mid-apply so that only a prefix of the copies is updated.
//
// Assignment-installation messages (StageInstall) are exempt from message
// faults: the QR reassignment protocol's safety argument requires the new
// assignment to reach every responder it was granted against, and making
// reconfiguration itself tolerate partial installation needs a consensus
// round that is out of scope here (the crash points before the install
// decision still apply). This is documented and asserted in the tests.
package faults

import (
	"fmt"
	"sort"
)

// Protocol stages, used to key per-message fault decisions. They mirror the
// message kinds of internal/cluster without importing it.
const (
	StageVoteRequest uint8 = iota + 1
	StageVoteReply
	StageSync
	StageApply
	StageApplyAck
	StageInstall // exempt from message faults (atomic installation)
	StageHistRequest
	StageHistReply
	StageHeartbeat
	StageHeartbeatAck
)

// Mix is a fault mixture: per-message fault probabilities plus the
// per-operation coordinator crash rate.
type Mix struct {
	Name string

	Drop      float64 // P(message lost)
	Duplicate float64 // P(message delivered twice)
	Reorder   float64 // P(message jumps ahead of earlier traffic)
	Delay     float64 // P(message delayed)
	MaxDelay  int     // delay bound in delivery slots (>=1 when Delay>0)

	Crash   float64 // P(coordinator crash per write operation)
	Recover float64 // P(a crashed node recovers, checked once per op)
}

// Validate rejects nonsensical mixtures.
func (m Mix) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"Drop", m.Drop}, {"Duplicate", m.Duplicate}, {"Reorder", m.Reorder},
		{"Delay", m.Delay}, {"Crash", m.Crash}, {"Recover", m.Recover},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s=%g out of [0,1]", p.name, p.v)
		}
	}
	if m.Delay > 0 && m.MaxDelay < 1 {
		return fmt.Errorf("faults: Delay=%g needs MaxDelay >= 1", m.Delay)
	}
	return nil
}

// The standard mixtures exercised by the chaos harness.
var mixes = map[string]Mix{
	"none": {Name: "none"},
	"drop": {Name: "drop", Drop: 0.15},
	"dup":  {Name: "dup", Duplicate: 0.30, Drop: 0.02},
	"reorder-delay": {Name: "reorder-delay",
		Reorder: 0.20, Delay: 0.30, MaxDelay: 6, Drop: 0.02},
	"crash": {Name: "crash",
		Drop: 0.05, Crash: 0.10, Recover: 0.40},
}

// Named returns a predefined mixture by name.
func Named(name string) (Mix, error) {
	m, ok := mixes[name]
	if !ok {
		return Mix{}, fmt.Errorf("faults: unknown mix %q (have %v)", name, Names())
	}
	return m, nil
}

// Names lists the predefined mixtures in sorted order.
func Names() []string {
	out := make([]string, 0, len(mixes))
	for k := range mixes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Decision is the fate of one logical message.
type Decision struct {
	Drop      bool
	Duplicate bool
	Reorder   bool
	Delay     int // delivery-slot delay; 0 = none
}

// CrashPoint identifies where inside a vote-collection round the
// coordinator fails.
type CrashPoint uint8

// Crash points. MidApply crashes after the coordinator has applied locally
// and sent the update to only a prefix of the responders.
const (
	NoCrash CrashPoint = iota
	CrashBeforeQuorum
	CrashAfterQuorum
	CrashMidApply
)

// String implements fmt.Stringer.
func (p CrashPoint) String() string {
	switch p {
	case NoCrash:
		return "none"
	case CrashBeforeQuorum:
		return "before-quorum"
	case CrashAfterQuorum:
		return "after-quorum"
	case CrashMidApply:
		return "mid-apply"
	default:
		return fmt.Sprintf("CrashPoint(%d)", uint8(p))
	}
}

// Source is what the cluster runtimes ask about faults. Each answer must be
// a pure function of its arguments: a runtime may ask the same key more than
// once (a write attempt re-asks StageApply to count Residue.Spread), and the
// two runtimes ask for message keys in different orders (the concurrent one
// decides a reply's fate when it sends the request). A source that chooses
// per call rather than per key — an explorer walking a choice vector, say —
// must therefore memoize its choice per key.
type Source interface {
	// Message decides the fate of one logical message.
	Message(op uint64, stage uint8, from, to, attempt int) Decision
	// Crash decides where, if anywhere, the coordinator of write attempt
	// (op, attempt) crashes; for CrashMidApply the int is a raw prefix
	// selector the caller reduces modulo the responder count plus one.
	Crash(op uint64, attempt int) (CrashPoint, int)
	// Jitter is a uniform variate in [0,1) for the backoff after attempt.
	Jitter(op uint64, attempt int) float64
}

// Plan is a deterministic fault schedule: a seed plus a mixture. Plans are
// immutable and safe for concurrent use.
type Plan struct {
	seed uint64
	mix  Mix
}

// NewPlan builds a plan. It panics on an invalid mixture (plans are
// constructed from trusted test/CLI configuration).
func NewPlan(seed uint64, mix Mix) *Plan {
	if err := mix.Validate(); err != nil {
		panic(err)
	}
	return &Plan{seed: seed, mix: mix}
}

// mix64 is the SplitMix64 finalizer — a strong 64-bit avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash chains the plan seed with the given fields.
func (p *Plan) hash(fields ...uint64) uint64 {
	h := p.seed
	for _, f := range fields {
		h = mix64(h + 0x9e3779b97f4a7c15 + f)
	}
	return h
}

// unit converts 64 hash bits into a uniform float64 in [0,1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Message decides the fate of one logical message. The decision depends
// only on (seed, op, stage, from, to, attempt) — not on when or by whom it
// is asked — so both runtimes see identical fault schedules.
func (p *Plan) Message(op uint64, stage uint8, from, to, attempt int) Decision {
	if stage == StageInstall {
		return Decision{} // assignment installation is modeled atomic
	}
	h := p.hash(op, uint64(stage), uint64(from)<<20|uint64(to), uint64(attempt))
	var d Decision
	if unit(h) < p.mix.Drop {
		d.Drop = true
		return d
	}
	h = mix64(h + 1)
	d.Duplicate = unit(h) < p.mix.Duplicate
	h = mix64(h + 2)
	d.Reorder = unit(h) < p.mix.Reorder
	h = mix64(h + 3)
	if unit(h) < p.mix.Delay {
		h = mix64(h + 4)
		d.Delay = 1 + int(h%uint64(p.mix.MaxDelay))
	}
	return d
}

// Crash decides whether the coordinator of write operation op (attempt
// attempt) crashes, at which point, and — for CrashMidApply — a raw prefix
// selector the caller reduces modulo the responder count.
func (p *Plan) Crash(op uint64, attempt int) (CrashPoint, int) {
	if p.mix.Crash == 0 {
		return NoCrash, 0
	}
	h := p.hash(^op, uint64(attempt), 0xc7a54)
	if unit(h) >= p.mix.Crash {
		return NoCrash, 0
	}
	h = mix64(h + 1)
	point := CrashPoint(1 + h%3)
	h = mix64(h + 2)
	return point, int(h % 1024)
}

// RecoverNow decides whether a crashed node recovers before operation op.
func (p *Plan) RecoverNow(op uint64, nodeID int) bool {
	if p.mix.Recover == 0 {
		return false
	}
	return unit(p.hash(op, uint64(nodeID), 0x4ec0)) < p.mix.Recover
}

// Jitter returns a deterministic uniform jitter value in [0,1) for backoff
// computation, keyed by operation and attempt.
func (p *Plan) Jitter(op uint64, attempt int) float64 {
	return unit(p.hash(op, uint64(attempt), 0x1177e4))
}
