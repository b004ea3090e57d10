package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"quorumkit/internal/faults"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/stats"
)

// This file hardens the protocol against an unreliable transport. The
// baseline protocol (coordinator.go) inherits the paper's
// idealized fault model: within a component every message is delivered
// exactly once, in order, instantly, and a coordinator never fails during
// a round. Under those assumptions "quorum granted" implies "update
// installed at every responder", so the baseline can report a write as
// committed the moment the votes are counted.
//
// A fault-injecting transport (faults.Plan, consulted by both transports
// per message) breaks every one of those assumptions: messages are dropped, duplicated, reordered and delayed,
// and the coordinator can crash before quorum, after quorum but before
// apply, or mid-apply. The hardened operations below keep the protocol
// safe — never stale reads, never two values under one stamp — by adding:
//
//   - reply deduplication: duplicated vote replies and acks are counted
//     once per sender, so injected duplication can never inflate a vote
//     total past a quorum;
//   - unique write stamps: under chaos a stamp is (sequence<<10 | site),
//     so two coordinators that race to the same sequence number can never
//     issue the same stamp for different values. The coordinator applies
//     its own copy before any message leaves, which (with adopt-max
//     monotonicity) makes the sequence it issues strictly increase;
//   - acknowledged writes: a write reports success only after copies
//     holding the new stamp cover a write quorum of votes; a partial
//     apply surfaces as ErrIndeterminate and is reported to the history
//     checker as an indeterminate write rather than silently succeeding;
//   - commit-confirmed reads (ABD-style read repair): a read returns a
//     value only when copies holding its stamp cover a write quorum —
//     either observed directly in the vote replies or established by
//     writing the value back and counting acks. This trades availability
//     (a component can have a read quorum but be unable to confirm) for
//     correctness, which is exactly the theory/practice gap the fault
//     model exposes;
//   - timeout/retry with exponential backoff and deterministic jitter:
//     an attempt that lost expected replies to faults fails with
//     ErrTimeout and is retried under RetryPolicy; an attempt denied with
//     a full response set fails with ErrNoQuorum and is not retried
//     (nothing will change without a topology event).
//
// Crash-recovery: a crashed coordinator keeps its copy state (value,
// stamp, assignment, version — the node's durable state), and Recover
// reloads it from the store. The recovered node re-learns newer
// assignments through the existing syncState/installAssign paths, which is
// the paper's version-number safety argument exercised end to end.

// Typed operation errors.
var (
	// ErrNoQuorum: every expected reply arrived and the votes still fall
	// short — retrying cannot help until the topology changes.
	ErrNoQuorum = errors.New("cluster: no quorum")
	// ErrTimeout: expected replies were lost to the transport; a retry may
	// succeed.
	ErrTimeout = errors.New("cluster: timed out waiting for replies")
	// ErrIndeterminate: a write reached quorum but its apply phase was not
	// acknowledged by a write quorum — the value is on some copies and may
	// surface later.
	ErrIndeterminate = errors.New("cluster: operation indeterminate (partial apply)")
	// ErrCoordinatorDown: the submitting site is down or crashed.
	ErrCoordinatorDown = errors.New("cluster: coordinator down")
	// ErrCrashed: the coordinator crashed during the round.
	ErrCrashed = errors.New("cluster: coordinator crashed mid-operation")
)

// RetryPolicy bounds operation retries. Backoff is exponential with
// deterministic jitter: delay(attempt) = min(Base·2^attempt, Max) ticks,
// scaled down by up to Jitter·uniform. Ticks are abstract in the
// deterministic runtime and scaled to a real duration by the concurrent
// one.
type RetryPolicy struct {
	MaxAttempts int
	BaseBackoff int64
	MaxBackoff  int64
	Jitter      float64 // fraction of the delay subject to jitter, in [0,1]
}

// DefaultRetryPolicy mirrors common production defaults: three attempts,
// exponential backoff starting at 2 ticks capped at 16, half jittered.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: 2, MaxBackoff: 16, Jitter: 0.5}
}

// backoff computes the attempt's delay in ticks from a uniform jitter
// variate u in [0,1).
func (p RetryPolicy) backoff(attempt int, u float64) int64 {
	d := p.BaseBackoff << uint(attempt)
	if d > p.MaxBackoff || d <= 0 {
		d = p.MaxBackoff
	}
	if p.Jitter > 0 {
		d -= int64(p.Jitter * u * float64(d))
	}
	if d < 1 {
		d = 1
	}
	return d
}

// Residue is a value a failed or crashed write left on some copies — a
// partial apply that may surface in later reads. The history checker
// treats residues as indeterminate writes.
//
// Spread counts the apply messages the fault plan let through toward peer
// copies (delivery may still be delayed or refused by topology, so it is
// an upper bound on peers holding the value). Spread == 0 on a
// crash-mid-apply residue means the coordinator's own disk holds the only
// copy: if that disk is then lost before the node ever serves again, the
// value is provably unobservable and the harness retires the pending
// write from the history checker.
type Residue struct {
	Value  int64
	Stamp  int64
	Spread int
}

// Outcome is the result of one fault-hardened client operation, including
// retries.
type Outcome struct {
	Granted      bool
	Value, Stamp int64
	Err          error // nil iff Granted
	Attempts     int
	Residue      []Residue // partial applies left by failed attempts
	BackoffTicks int64
}

// chaosState is the fault-injection context of one runtime: the plan both
// transports consult per message, the retry policy, and the counters. The
// mutex makes counter and crash-set snapshots safe against the concurrent
// runtime's node and daemon goroutines.
type chaosState struct {
	plan   *faults.Plan
	policy RetryPolicy

	mu       sync.Mutex
	counters stats.ChaosCounters
	crashed  []bool

	// op/attempt key the fault decisions for the operation in flight; only
	// touched by the one operation the runtime admits at a time.
	op      uint64
	attempt int
}

// bump applies one counter mutation under the chaos lock.
func (ch *chaosState) bump(f func(c *stats.ChaosCounters)) {
	ch.mu.Lock()
	f(&ch.counters)
	ch.mu.Unlock()
}

// EnableChaos attaches a fault plan and retry policy. All subsequent
// message deliveries pass through the fault-injecting transport, and the
// hardened ChaosRead/ChaosWrite/ChaosReassign operations become available.
// The baseline Read/Write/Reassign methods stay callable but keep their
// idealized-transport assumptions — driving them under chaos demonstrably
// violates one-copy serializability (see
// TestUnhardenedProtocolViolatesUnderChaos).
func (k *coordinator) EnableChaos(plan *faults.Plan, policy RetryPolicy) {
	if policy.MaxAttempts < 1 {
		policy.MaxAttempts = 1
	}
	k.chaos = &chaosState{plan: plan, policy: policy, crashed: make([]bool, len(k.all))}
}

// ChaosCounters returns a snapshot of the fault-injection counters.
func (k *coordinator) ChaosCounters() stats.ChaosCounters {
	if k.chaos == nil {
		return stats.ChaosCounters{}
	}
	k.chaos.mu.Lock()
	defer k.chaos.mu.Unlock()
	return k.chaos.counters
}

// Crashed lists nodes currently down due to an injected crash.
func (k *coordinator) Crashed() []int {
	var out []int
	if k.chaos == nil {
		return out
	}
	k.chaos.mu.Lock()
	defer k.chaos.mu.Unlock()
	for i, down := range k.chaos.crashed {
		if down {
			out = append(out, i)
		}
	}
	return out
}

// Recover brings a crashed node back up by reloading its durable state
// from its store: a clean (possibly truncate-repaired) recovery restores
// the state the node could have externalized and resumes full membership,
// while a corrupt or wiped store puts the node into amnesiac mode — it must
// rejoin by state transfer, never by voting (see durable.go). When the
// immediate rejoin attempt fails the node stays down for a later retry. It
// reports whether the node is back up as a member (full or recovering).
// With persistence disabled, recovery keeps the in-memory state as before.
func (k *coordinator) Recover(x int) bool {
	ch := k.chaos
	if ch == nil {
		return false
	}
	ch.mu.Lock()
	wasCrashed := ch.crashed[x]
	ch.mu.Unlock()
	if !wasCrashed {
		return false
	}
	k.tr.RepairSite(x)
	err := k.tr.lock(x).reload()
	k.tr.unlock(x)
	if err != nil {
		k.beginAmnesia(x, err)
		if !k.tryRejoin(x) {
			// Still amnesiac with no rejoin quorum of peers reachable:
			// stay down until the harness retries the recovery.
			k.tr.FailSite(x)
			return false
		}
	}
	ch.mu.Lock()
	ch.crashed[x] = false
	ch.counters.Recoveries++
	ch.mu.Unlock()
	observeRecover(k.obs, x)
	return true
}

// crash fails the coordinator mid-round. Its store loses every unsynced
// append (plus whatever damage a FaultDisk injects).
func (k *coordinator) crash(x int) {
	k.tr.FailSite(x)
	r := k.tr.lock(x)
	if r.store != nil {
		r.store.Crash()
	}
	k.tr.unlock(x)
	k.chaos.mu.Lock()
	k.chaos.crashed[x] = true
	k.chaos.counters.Crashes++
	k.chaos.mu.Unlock()
	observeCrash(k.obs, x)
}

// classifyShort distinguishes a clean quorum denial from a round that lost
// replies to the transport.
func (k *coordinator) classifyShort(got, expected int) error {
	if got < expected {
		k.chaos.bump(func(c *stats.ChaosCounters) { c.Timeouts++ })
		return ErrTimeout
	}
	k.chaos.bump(func(c *stats.ChaosCounters) { c.NoQuorum++ })
	return ErrNoQuorum
}

// Unique stamps under chaos: the low bits carry the coordinator id so two
// coordinators racing to the same sequence number can never issue the same
// stamp for different values.
const chaosStampShift = 10

func nextChaosStamp(prev int64, coordinator int) int64 {
	return (prev>>chaosStampShift+1)<<chaosStampShift | int64(coordinator)
}

// pushApplies fans an acknowledged applyWrite out to targets and returns
// the votes of distinct senders confirming stamp (or newer) plus the count
// of distinct acks received. A delivered apply whose ack is lost still
// mutates the peer, but contributes nothing to the count.
func (k *coordinator) pushApplies(x int, targets []int, value, stamp int64) (votes, count int) {
	acks, _ := k.tr.exchange(x, targets, msg{tag: tagApplyWrite, value: value, stamp: stamp, wantAck: true})
	k.seen.reset(len(k.all))
	for i := range acks {
		if a := &acks[i]; a.stamp >= stamp && k.seen.add(a.from) {
			votes += k.st.Votes(int(a.from))
			count++
		}
	}
	return votes, count
}

// chaosReadOnce is one hardened read attempt.
func (k *coordinator) chaosReadOnce(x int) (value, stamp int64, err error) {
	replies, eff, votes, expected, support := k.collect(x, OpRead, true)
	if votes < eff.assign.QR {
		return 0, 0, k.classifyShort(len(replies), expected)
	}
	if eff.stamp == 0 || support >= eff.assign.QW {
		// Initial state (trivially on every copy) or already confirmed on
		// a write quorum: safe to return.
		return eff.value, eff.stamp, nil
	}
	// ABD-style read repair: write the freshest value back to the stale
	// responders and return it only once copies holding it cover a write
	// quorum. Without this, a partially applied write observed by one read
	// could vanish from the next — a one-copy serializability violation.
	stale := k.targets[:0]
	for i := range replies {
		if replies[i].stamp != eff.stamp {
			stale = append(stale, int(replies[i].from))
		}
	}
	k.targets = stale
	ackVotes, ackCount := k.pushApplies(x, stale, eff.value, eff.stamp)
	if support+ackVotes >= eff.assign.QW {
		return eff.value, eff.stamp, nil
	}
	return 0, 0, k.classifyShort(ackCount, len(stale))
}

// chaosWriteOnce is one hardened write attempt. A non-nil residue reports
// a partial apply (indeterminate or crash mid-apply).
func (k *coordinator) chaosWriteOnce(x int, value int64) (stamp int64, residue *Residue, err error) {
	ch := k.chaos
	cp, kSel := ch.plan.Crash(ch.op, ch.attempt)
	if cp == faults.CrashBeforeQuorum {
		// The coordinator dies before counting a single vote. Nothing was
		// applied anywhere: a clean failure.
		k.crash(x)
		return 0, nil, ErrCrashed
	}
	replies, eff, votes, expected, _ := k.collect(x, OpWrite, true)
	if votes < eff.assign.QW {
		return 0, nil, k.classifyShort(len(replies), expected)
	}
	if cp == faults.CrashAfterQuorum {
		// Quorum reached, coordinator dies before the first apply: the new
		// value exists nowhere, so this too is a clean failure.
		k.crash(x)
		return 0, nil, ErrCrashed
	}
	stamp = nextChaosStamp(eff.stamp, x)
	k.applyLocal(x, value, stamp) // local apply before any send
	if cp == faults.CrashMidApply {
		// Only a prefix of the responders receives the update, then the
		// coordinator dies: the write is partially applied and must be
		// reported as indeterminate, never as success.
		replies = replies[:kSel%(len(replies)+1)]
	}
	// Re-draw the (pure) admission decisions to count the applies the plan
	// lets toward peers; see Residue.Spread.
	spread := 0
	targets := k.senders(replies)
	for _, p := range targets {
		if !ch.plan.Message(ch.op, faults.StageApply, x, p, ch.attempt).Drop {
			spread++
		}
	}
	if cp == faults.CrashMidApply {
		k.tr.post(x, targets, msg{tag: tagApplyWrite, value: value, stamp: stamp})
		k.crash(x)
		return 0, &Residue{Value: value, Stamp: stamp, Spread: spread}, ErrCrashed
	}
	ackVotes, _ := k.pushApplies(x, targets, value, stamp)
	if k.st.Votes(x)+ackVotes >= eff.assign.QW {
		return stamp, nil, nil
	}
	ch.bump(func(c *stats.ChaosCounters) { c.Indeterminate++ })
	return 0, &Residue{Value: value, Stamp: stamp, Spread: spread}, ErrIndeterminate
}

// retryable reports whether a failed attempt is worth repeating: lost
// replies and partial applies can resolve differently next time, while a
// full-response quorum denial or a dead coordinator cannot.
func retryable(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrIndeterminate)
}

// hardened runs one fault-hardened client operation at node x: attempt is
// tried under the retry policy, each try keyed into the fault schedule by
// (operation, attempt), until it succeeds, fails for good, or runs out of
// attempts. attempt fills in the outcome's value, stamp and residues.
func (k *coordinator) hardened(x int, attempt func(out *Outcome) error) Outcome {
	ch := k.mustChaos()
	ch.op++
	var out Outcome
	for try := 0; ; try++ {
		ch.attempt = try
		out.Attempts = try + 1
		if !k.tr.siteUp(x) {
			out.Err = ErrCoordinatorDown
		} else if k.Amnesiac(x) && !k.tryRejoin(x) {
			// An amnesiac node must not coordinate: its own votes could fill
			// a quorum through the copy that forgot the committed state.
			out.Err = ErrAmnesiac
		} else if out.Err = attempt(&out); out.Err == nil {
			out.Granted = true
			return out
		}
		if !retryable(out.Err) || try+1 >= ch.policy.MaxAttempts {
			ch.bump(func(c *stats.ChaosCounters) { c.Aborts++ })
			return out
		}
		// Account the retry and its deterministically jittered backoff,
		// which the concurrent runtime also sleeps through.
		d := ch.policy.backoff(try, ch.plan.Jitter(ch.op, try))
		out.BackoffTicks += d
		ch.bump(func(c *stats.ChaosCounters) {
			c.Retries++
			c.BackoffTicks += d
		})
		observeRetry(k.obs, x, try, d)
		time.Sleep(time.Duration(d) * k.tick)
	}
}

// ChaosRead performs a fault-hardened read at node x with retries under
// the configured policy. Requires EnableChaos.
func (k *coordinator) ChaosRead(x int) Outcome {
	out := k.hardened(x, func(out *Outcome) (err error) {
		out.Value, out.Stamp, err = k.chaosReadOnce(x)
		return err
	})
	observeOutcome(k.obs, OpRead, x, out)
	return out
}

// ChaosWrite performs a fault-hardened write at node x with retries.
// Failed attempts that left the value on some copies are reported in
// Outcome.Residue so history checkers can treat them as indeterminate.
func (k *coordinator) ChaosWrite(x int, value int64) Outcome {
	out := k.hardened(x, func(out *Outcome) error {
		stamp, residue, err := k.chaosWriteOnce(x, value)
		if residue != nil {
			out.Residue = append(out.Residue, *residue)
		}
		if err == nil {
			out.Value, out.Stamp = value, stamp
		}
		return err
	})
	observeOutcome(k.obs, OpWrite, x, out)
	return out
}

// ChaosReassign installs a new assignment through the hardened QR
// protocol with retries. Message faults apply to the vote-collection
// round; the installation messages themselves are modeled atomic
// (StageInstall is exempt, see the faults package doc), because the QR
// safety argument needs the new assignment at every responder it was
// granted against.
func (k *coordinator) ChaosReassign(x int, a quorum.Assignment) Outcome {
	var out Outcome
	if err := a.Validate(k.st.TotalVotes()); err != nil {
		k.mustChaos().op++ // a rejected request still takes its slot in the fault schedule
		out.Err = fmt.Errorf("cluster: reassign: %w", err)
	} else {
		out = k.hardened(x, func(*Outcome) error {
			replies, eff, votes, expected, _ := k.collect(x, OpReassign, true)
			if votes < eff.assign.QW {
				return k.classifyShort(len(replies), expected)
			}
			k.install(x, a, eff, replies)
			return nil
		})
	}
	if !out.Granted && k.obs != nil {
		k.obs.Inc(obs.CReassignDeny)
		k.obs.Emit(obs.EvQuorumDeny, int32(x), int32(OpReassign), -1, 0)
	}
	return out
}

// mustChaos asserts that EnableChaos was called.
func (k *coordinator) mustChaos() *chaosState {
	if k.chaos == nil {
		panic("cluster: chaos operation without EnableChaos")
	}
	return k.chaos
}
