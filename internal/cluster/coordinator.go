package cluster

import (
	"fmt"
	"slices"
	"time"

	"quorumkit/internal/core"
	"quorumkit/internal/graph"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/stats"
	"quorumkit/internal/store"
)

// transport is the one line along which the two runtimes differ: how a
// message gets from one site to another, and how access to a site's
// replica is serialized. Everything the protocol decides is written once,
// in coordinator, over these calls.
//
// A transport applies the fault plan and the link schedule per message and
// per direction, hands each delivery to replica.receive, and guarantees that
// when exchange or post returns every delivery it admitted has been
// processed — including reply-less ones, so the side effects of a request
// whose reply was lost (the peer's copy changes, its sync barrier runs) have
// landed. A peer that abstains, is unreachable, or whose reply is lost is
// simply missing from the replies. Target lists may include the sender; a
// site never messages itself.
type transport interface {
	// exchange sends req from x to each target and returns the replies that
	// made it back, in arrival order and without deduplication, plus how
	// many targets the topology let x reach (up and in x's component). The
	// replies are the caller's to reorder and valid until the next exchange;
	// each one's from is the site it came from (a reply claiming another
	// sender is dropped in transit), so rounds may index by it.
	exchange(x int, targets []int, req msg) (replies []msg, expected int)
	// post sends m from x to each target and expects no reply.
	post(x int, targets []int, m msg)
	// siteUp reports whether site x is up.
	siteUp(x int) bool
	// lock returns site x's replica for exclusive access until unlock.
	lock(x int) *replica
	unlock(x int)
	// sent is the cumulative count of messages sent.
	sent() int64
	// traffic is the cumulative message counts the obs registry reports;
	// call it in the operation slot.
	traffic() Stats
	// enter takes the operation slot, which owns everything the coordinator
	// holds above the node lock; exit releases it. With timed set, exit also
	// records the operation's wall-clock latency. Every exported coordinator
	// method that reads or replaces that state enters first, so no method
	// that has entered may call one that does.
	enter(timed bool) (exit func())

	FailSite(i int)
	RepairSite(i int)
}

// coordinator is the protocol both runtimes run: vote collection, the
// version-numbered QR reassignment, the hardened chaos operations, strategy
// serving, the failure detector and daemon, and the §4.2/§4.3 estimator
// gossip, written once over a transport. Cluster and Async embed it; its
// exported methods are their shared API, and each one that touches the
// state below begins with defer k.tr.enter(…)() (TestOperationsTakeTheSlot).
type coordinator struct {
	tr  transport
	st  *graph.State
	all []int // every site id: the target list of a component-wide round

	// tick is the real duration of one abstract delay slot or backoff tick;
	// zero in the deterministic runtime, whose ticks stay abstract.
	tick time.Duration

	// disks are the per-site media under the replicas' stores (see
	// durable.go); nil after DisablePersistence.
	disks []*store.MemDisk

	// chaos, when non-nil, holds the fault plan the transport consults and
	// enables the hardened ChaosRead/ChaosWrite/ChaosReassign operations
	// (see chaos.go).
	chaos *chaosState
	// faultCounts counts what the fault source injects and what the
	// hardened operations and crash recovery do about it. It lives outside
	// chaos because amnesia and rejoin happen without a fault source too
	// (WipeState); ChaosCounters reports it once EnableChaos is called.
	faultCounts stats.ChaosCounters
	// health, when non-nil, holds the failure detector, adaptive
	// reassignment daemon, and degradation gate (see health.go).
	health *healthState
	// strat, when non-nil, holds the installed randomized quorum strategy
	// the serving layer samples from (see strategy.go).
	strat *strategyState
	// links is the schedule of link cuts and slowdowns the transport
	// evaluates per message direction, and the one clock it is read at (see
	// links.go).
	links linkFaults
	// obs, when non-nil, receives the counters nothing else keeps,
	// histograms and trace events, and collects the typed counters above at
	// each snapshot (see obs.go); observation is write-only and never
	// affects behaviour.
	obs *obs.Registry

	// votes is every site's vote count, fixed for the runtime's life (the
	// graph.State it is read from has no setter).
	votes []int

	// Per-round scratch, reused because rounds are serialized (one goroutine
	// in the deterministic runtime, the operation slot in the concurrent
	// one) and none of it outlives the round that filled it: the set of
	// senders already counted, a target list, the heartbeat round trips,
	// and the §4.3 attempt's gossiped estimator and the Figure-1 model
	// rebuilt from it (estimate.go).
	seen    bitset
	targets []int
	rtts    []int64
	est     *core.Estimator
	model   core.Model
}

// bitset is a set of site ids.
type bitset []uint64

// reset empties the set and sizes it for ids below n.
func (b *bitset) reset(n int) {
	if words := (n + 63) / 64; cap(*b) < words {
		*b = make(bitset, words)
	} else {
		*b = (*b)[:words]
		clear(*b)
	}
}

// add inserts id and reports whether it was absent.
func (b bitset) add(id int32) bool {
	w, bit := &b[id>>6], uint64(1)<<(id&63)
	absent := *w&bit == 0
	*w |= bit
	return absent
}

// dedup keeps the first reply of each sender, in place.
func (k *coordinator) dedup(replies []msg) []msg {
	k.seen.reset(len(k.all))
	n := 0
	for i := range replies {
		if k.seen.add(replies[i].from) {
			if n != i {
				replies[n] = replies[i]
			}
			n++
		}
	}
	return replies[:n]
}

// init wires the coordinator to its transport and gives every replica its
// initial identity and durable store.
func (k *coordinator) init(tr transport, st *graph.State, initial quorum.Assignment) error {
	if err := initial.Validate(st.TotalVotes()); err != nil {
		return fmt.Errorf("cluster: initial assignment: %w", err)
	}
	n := st.Graph().N()
	k.tr, k.st = tr, st
	k.all, k.votes = make([]int, n), make([]int, n)
	k.disks = make([]*store.MemDisk, n)
	for i := range k.all {
		k.all[i], k.votes[i] = i, st.Votes(i)
		k.disks[i] = store.NewMemDisk()
		r := tr.lock(i)
		*r = replica{id: i, votes: st.Votes(i), bins: st.TotalVotes() + 1,
			Copy: quorum.Copy{Version: 1, QR: initial.QR, QW: initial.QW}, store: store.Open(k.disks[i], 0)}
		r.store.Reset(r.Copy, nil)
		tr.unlock(i)
	}
	return nil
}

// view returns a snapshot of site x's votes and copy.
func (k *coordinator) view(x int) (votes int, s quorum.Copy) {
	r := k.tr.lock(x)
	defer k.tr.unlock(x)
	return r.votes, r.Copy
}

// NodeVersion returns node x's assignment version (for invariant checks).
func (k *coordinator) NodeVersion(x int) int64 {
	_, s := k.view(x)
	return s.Version
}

// NodeAssignment returns node x's locally installed assignment without
// running a round (the adversary's public knowledge of the system).
func (k *coordinator) NodeAssignment(x int) quorum.Assignment {
	_, s := k.view(x)
	return s.Assignment()
}

// collect runs a vote-collection round from coordinator x: request votes
// from the whole component, merge the replies into the effective state,
// adopt it, and push the merged view back to the responders so every
// contacted node ends the round with the newest assignment and value. It
// returns the replies (the transport's, so valid until the next exchange),
// the effective state, the votes gathered (x's own included), the number of
// responders the topology promised, and the votes of copies confirmed to
// hold the effective stamp.
//
// The idealized operations (hardened false) deliberately do not filter
// duplicate replies: that is the paper's protocol, which assumes
// exactly-once delivery, and the contrast is what
// TestUnhardenedProtocolViolatesUnderChaos demonstrates. The hardened
// operations count each sender once and take the responders in canonical
// (sender) order — delivery order depends on injected reordering and on
// the transport, but downstream decisions, notably the mid-apply crash
// prefix, must be a function of the responder set.
func (k *coordinator) collect(x int, op OpKind, hardened bool) (replies []msg, eff quorum.Copy, votes, expected, support int) {
	replies, expected = k.tr.exchange(x, k.all, msg{tag: tagVoteRequest, op: op})
	if hardened {
		replies = k.dedup(replies)
		slices.SortFunc(replies, func(a, b msg) int { return int(a.from) - int(b.from) }) // senders are unique
	}
	selfVotes, eff := k.view(x)
	votes = selfVotes
	for i := range replies {
		votes += int(replies[i].votes)
		eff.Adopt(replies[i].copy())
	}

	self := k.tr.lock(x)
	if self.Adopt(eff) {
		self.persistState()
	}
	self.observe(votes)
	self.syncStore() // merged view durable before it is gossiped
	k.tr.unlock(x)

	// Stamps are unique under chaos, so holding eff.Stamp pins the value.
	// The coordinator counts itself: adopt just installed the merged state.
	support = selfVotes
	for i := range replies {
		if replies[i].stamp == eff.Stamp {
			support += int(replies[i].votes)
		}
	}
	// The push also carries the round's vote total, so every participant
	// records the §4.2 observation. Under a fault plan it is best-effort
	// gossip; correctness never depends on it arriving.
	k.push(x, replies, eff, votes)
	return replies, eff, votes, expected, support
}

// push sends the merged copy eff from x back to the senders of replies as a
// syncState, the paper's rule that a component updates its copies on
// contact. A push that carries a §4.2 observation (votesSeen > 0) goes to
// every sender, since each one records it. Any other push goes only to the
// senders whose reply differs from eff: at a current one Adopt is a no-op
// and a zero-vote push records nothing, so skipping it leaves every copy
// and every disk byte as they were. With no target left nothing is posted.
// The targets go into the round's target scratch.
func (k *coordinator) push(x int, replies []msg, eff quorum.Copy, votesSeen int) {
	k.targets = k.targets[:0]
	for i := range replies {
		if votesSeen > 0 || replies[i].copy() != eff {
			k.targets = append(k.targets, int(replies[i].from))
		}
	}
	if len(k.targets) == 0 {
		return
	}
	sync := stateMsg(tagSyncState, eff)
	sync.votesSeen = int32(votesSeen)
	k.tr.post(x, k.targets, sync)
}

// senders lists the sites a set of replies came from, in the round's
// target scratch.
func (k *coordinator) senders(replies []msg) []int {
	k.targets = k.targets[:0]
	for i := range replies {
		k.targets = append(k.targets, int(replies[i].from))
	}
	return k.targets
}

// Read submits a read at node x: collect votes from the component, grant if
// they meet the effective read quorum, and return the freshest collected
// value.
func (k *coordinator) Read(x int) (value int64, stamp int64, granted bool) {
	defer k.tr.enter(false)()
	return k.read(x)
}

// read is Read for a caller already in the slot.
func (k *coordinator) read(x int) (value int64, stamp int64, granted bool) {
	if !k.tr.siteUp(x) {
		return 0, 0, false
	}
	sentBefore := k.tr.sent()
	_, eff, votes, _, _ := k.collect(x, OpRead, false)
	k.obs.Observe(obs.HReadMsgs, k.tr.sent()-sentBefore)
	if votes < eff.QR {
		observeDecision(k.obs, OpRead, x, votes, false, int64(eff.QR))
		return 0, 0, false
	}
	observeDecision(k.obs, OpRead, x, votes, true, eff.Stamp)
	return eff.Value, eff.Stamp, true
}

// Write submits a write at node x. When the effective write quorum is met,
// the new value is applied at every responding node.
func (k *coordinator) Write(x int, value int64) bool {
	defer k.tr.enter(false)()
	_, ok := k.writeOp(x, value)
	return ok
}

// writeOp is Write exposing the stamp the write committed under, which the
// serving layer records into operation histories.
func (k *coordinator) writeOp(x int, value int64) (stamp int64, ok bool) {
	if !k.tr.siteUp(x) {
		return 0, false
	}
	sentBefore := k.tr.sent()
	replies, eff, votes, _, _ := k.collect(x, OpWrite, false)
	if votes < eff.QW {
		k.obs.Observe(obs.HWriteMsgs, k.tr.sent()-sentBefore)
		observeDecision(k.obs, OpWrite, x, votes, false, int64(eff.QW))
		return 0, false
	}
	stamp = eff.Stamp + 1
	k.applyLocal(x, value, stamp)
	k.tr.post(x, k.senders(replies), msg{tag: tagApplyWrite, value: value, stamp: stamp})
	k.obs.Observe(obs.HWriteMsgs, k.tr.sent()-sentBefore)
	observeDecision(k.obs, OpWrite, x, votes, true, stamp)
	return stamp, true
}

// applyLocal installs a new value at the coordinator's own copy and makes
// it durable before any apply leaves the node.
func (k *coordinator) applyLocal(x int, value, stamp int64) {
	self := k.tr.lock(x)
	self.Value, self.Stamp = value, stamp
	self.persistState()
	self.syncStore()
	k.tr.unlock(x)
}

// Reassign attempts to install a new assignment from node x under the QR
// protocol: permitted only when the component meets the effective (old)
// write quorum. The new assignment and the current value are installed at
// every responding node.
func (k *coordinator) Reassign(x int, a quorum.Assignment) error {
	defer k.tr.enter(false)()
	return k.reassign(x, a)
}

// reassign is Reassign for a caller already in the slot.
func (k *coordinator) reassign(x int, a quorum.Assignment) error {
	if err := a.Validate(k.st.TotalVotes()); err != nil {
		return fmt.Errorf("cluster: reassign: %w", err)
	}
	if !k.tr.siteUp(x) {
		return fmt.Errorf("cluster: reassign: node %d is down", x)
	}
	replies, eff, votes, _, _ := k.collect(x, OpReassign, false)
	if votes < eff.QW {
		observeDecision(k.obs, OpReassign, x, votes, false, int64(eff.QW))
		return fmt.Errorf("cluster: reassign: collected %d votes, need %d", votes, eff.QW)
	}
	k.install(x, a, eff, replies)
	return nil
}

// install is the granted half of a reassignment: the coordinator adopts
// the new assignment at the next version, makes it durable, and installs it
// — together with the current value, the refresh that makes extreme
// reassignments safe — at every responder it was granted against.
func (k *coordinator) install(x int, a quorum.Assignment, eff quorum.Copy, replies []msg) {
	version := eff.Version + 1
	self := k.tr.lock(x)
	self.QR, self.QW, self.Version = a.QR, a.QW, version
	self.persistState()
	self.syncStore() // durable before the installs fan out
	k.tr.unlock(x)
	eff.QR, eff.QW, eff.Version = a.QR, a.QW, version
	k.tr.post(x, k.senders(replies), stateMsg(tagInstallAssign, eff))
	observeInstall(k.obs, x, version, a)
}
