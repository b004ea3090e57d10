package cluster

import (
	"errors"

	"quorumkit/internal/faults"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/store"
)

// Durability layer. Every replica owns a store.NodeStore on a deterministic
// in-memory disk (persistence is on by default so every code path —
// idealized, chaos, soak — exercises the same store interface); all
// protocol-critical mutations (value, stamp, assignment, version) and
// estimator observations are routed through it (see replica.go), and the
// engine's Sync barrier runs before any state is externalized —
// before a vote reply, a write acknowledgement, a heartbeat answer, or a
// granted return. That discipline is what makes crash-recovery honest: a
// crashed node recovers exactly the state it could have promised to anyone,
// never more.
//
// Recovery has two fates. When the sealed durable prefix is intact (possibly
// after truncating a torn, never-externalized tail) the node reloads it and
// resumes as a full member — the paper's version-number safety argument needs
// nothing else. When the sealed prefix is corrupt or the medium wiped, the
// node becomes *amnesiac*: it may have voted with state it can no longer
// remember, so letting it vote again with zeroed state would break quorum
// intersection (a read quorum could be satisfied through the one copy that
// forgot the committed write). An amnesiac node therefore abstains from every
// quorum-bearing exchange — vote requests, acknowledged applies, heartbeats,
// histogram gossip — while still passively adopting newer state, until a
// state-transfer rejoin readmits it.
//
// Rejoin safety: the amnesiac gathers copy state from responders *excluding
// itself* whose votes cover rejoinQuorum = ⌈T/2⌉. Any committed write was
// applied at a write quorum and any assignment version was installed at one,
// and the assignment invariant 2·QW > T bounds every such quorum below by
// ⌊T/2⌋+1 votes — so the gathered set intersects each of them in at least
// one still-full member that remembers (see rejoinQuorum for the pigeonhole
// and for why the bound must not depend on the assignment the amnesiac
// happens to hear). A read quorum would not do: QR + QW > T only guarantees
// intersection with write quorums of the *same* assignment, and says nothing
// once the amnesiac's own vanished votes are discounted. The adopted state is
// persisted as a fresh durable identity (store.Reset) before the node answers
// its first vote request.

// ErrAmnesiac: the node lost its durable state (corrupt or wiped) and has
// not yet completed a state-transfer rejoin; it can neither coordinate nor
// vote.
var ErrAmnesiac = errors.New("cluster: amnesiac: durable state lost, awaiting state-transfer rejoin")

// rejoinQuorum is the vote threshold a state-transfer rejoin must gather
// from *other* full members: ⌈T/2⌉. Every valid quorum assignment satisfies
// 2·QW > T, so every committing write quorum and every assignment-install
// quorum holds at least ⌊T/2⌋+1 votes; a gathered set of ⌈T/2⌉ votes then
// intersects each of them (⌈T/2⌉ + ⌊T/2⌋ + 1 = T+1 > T) in at least one
// member that is still full — and a full member remembers both the newest
// installed version and the newest committed write. The bound is independent
// of whatever assignment the amnesiac happens to hear, which matters: the
// newest write quorum may be larger than the newest *heard* one, and
// thresholding on the heard QW alone would not be safe in general, while
// thresholding on the heard QW when it exceeds ⌈T/2⌉ would be needlessly
// strict and lets simultaneous amnesia deadlock clusters that are still
// recoverable.
func rejoinQuorum(totalVotes int) int {
	return (totalVotes + 1) / 2
}

// DisablePersistence detaches the durable engines, restoring the purely
// in-memory seed behaviour. Intended for A/B overhead measurement (see
// cmd/quorumsim -benchstore); crash recovery degrades to the pretend
// durability of keeping in-memory state.
func (k *coordinator) DisablePersistence() {
	k.disks = nil
	for x := range k.all {
		k.tr.lock(x).store = nil
		k.tr.unlock(x)
	}
}

// EnableDiskChaos interposes a fault-injecting disk under every node's
// store: each injected crash consults plan for seed-planned damage (torn
// unsynced writes, flipped bits in durable content, or a wiped medium).
func (k *coordinator) EnableDiskChaos(plan *faults.DiskPlan) {
	if k.disks == nil {
		panic("cluster: EnableDiskChaos without persistence")
	}
	for x, disk := range k.disks {
		k.tr.lock(x).store.SetDisk(store.NewFaultDisk(disk, plan, x))
		k.tr.unlock(x)
	}
}

// StoreCounters returns node x's storage-engine metrics (zero when
// persistence is disabled).
func (k *coordinator) StoreCounters(x int) store.Counters {
	r := k.tr.lock(x)
	defer k.tr.unlock(x)
	if r.store == nil {
		return store.Counters{}
	}
	return r.store.Counters()
}

// Amnesiac reports whether node x is awaiting a state-transfer rejoin.
func (k *coordinator) Amnesiac(x int) bool {
	r := k.tr.lock(x)
	defer k.tr.unlock(x)
	return r.amnesiac
}

// beginAmnesia zeroes node x's protocol state and marks it amnesiac.
// Idempotent, so a retried recovery does not double-count.
func (k *coordinator) beginAmnesia(x int, cause error) {
	already := k.tr.lock(x).forget()
	k.tr.unlock(x)
	if !already {
		k.countAmnesia(x, cause)
	}
}

// countAmnesia records node x's entry into amnesia, fault source or not,
// and traces it with A = 1 when the state was corrupt, 0 when it was absent
// entirely. Call it without holding x's lock.
func (k *coordinator) countAmnesia(x int, cause error) {
	k.faultCounts.Amnesias++
	var corrupt int64
	if errors.Is(cause, store.ErrCorrupt) {
		corrupt = 1
	}
	k.obs.Emit(obs.EvAmnesia, int32(x), -1, corrupt, 0)
}

// WipeState models a site returning from repair with a blank disk (a
// replaced machine): the medium is lost and the node must rejoin by state
// transfer before it may vote again. The wipe, the reload that reports the
// empty medium and the amnesia it causes form one critical section under
// x's lock: the disk is touched only under the lock that serializes its
// store, and no round can meet x wiped yet still voting from memory.
func (k *coordinator) WipeState(x int) {
	defer k.tr.enter(false)()
	err := store.ErrNoState
	r := k.tr.lock(x)
	if k.disks != nil {
		k.disks[x].Wipe()
		err = r.reload() // reopens handles; reports ErrNoState
	}
	already := r.forget()
	k.tr.unlock(x)
	if !already {
		k.countAmnesia(x, err)
	}
}

// TryRejoin attempts the amnesiac state transfer at node x and reports
// whether x is a full member afterwards (trivially true when it never lost
// its state).
func (k *coordinator) TryRejoin(x int) bool {
	defer k.tr.enter(false)()
	if !k.Amnesiac(x) {
		return true
	}
	if !k.tr.siteUp(x) {
		return false
	}
	return k.tryRejoin(x)
}

// tryRejoin runs one state-transfer round from amnesiac node x: gather copy
// state from the reachable peers (never from itself), and readmit x only
// when the responders' votes cover rejoinQuorum — the intersection argument
// in the package comment. The round runs through the normal transport, so an
// attached fault plan drops and duplicates rejoin traffic like any other; a
// failed transfer leaves the node amnesiac for a later retry.
func (k *coordinator) tryRejoin(x int) bool {
	if ch := k.chaos; ch != nil {
		// Rejoin rounds key fault decisions like a fresh client operation so
		// retries see fresh (and cross-runtime identical) decisions.
		ch.op++
		ch.attempt = 0
	}
	replies, _ := k.tr.exchange(x, k.all, msg{tag: tagVoteRequest, op: OpRead})
	votes := 0
	var eff quorum.Copy
	for _, r := range k.dedup(replies) { // never from x: a site never messages itself
		votes += int(r.votes)
		eff.Adopt(r.copy())
	}
	// eff.Version >= 1 guarantees at least one real reply carried an
	// assignment (every full member holds version >= 1).
	if eff.Version < 1 || votes < rejoinQuorum(k.st.TotalVotes()) {
		return false
	}
	k.tr.lock(x).readmit(eff)
	k.tr.unlock(x)
	k.faultCounts.Rejoins++
	// The trace carries the version adopted and the votes that backed it.
	k.obs.Emit(obs.EvRejoin, int32(x), -1, eff.Version, int64(votes))
	return true
}
