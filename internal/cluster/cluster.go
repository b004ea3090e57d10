// Package cluster is a message-level implementation of the quorum consensus
// protocol and the paper's dynamic quorum reassignment protocol: every
// access is an explicit vote-collection round between a coordinator node
// and its reachable peers, with messages that cross a partition boundary
// silently dropped.
//
// Where the replica package models a component as a unit (the paper's
// simulation-level abstraction), this package demonstrates that the same
// decisions arise from a purely distributed exchange — each node holds only
// its own copy state, learns newer quorum assignments exclusively through
// messages, and the coordinator decides from the votes it actually
// collected. The two implementations are cross-checked operation-for-
// operation in the tests.
//
// The protocol is written once — replica (replica.go) is the per-site
// receiver, coordinator (coordinator.go and the feature files beside it)
// runs every round — over a small transport interface with two
// implementations. Cluster, in this file, is the deterministic one: an
// operation drains its own message queue to completion (the paper's events
// are instantaneous, so an access never overlaps a failure), and delivery
// order is the send order unless a fault source delays or reorders a
// message. Async (async.go) is the concurrent one.
package cluster

import (
	"fmt"
	"slices"
	"sort"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
)

// OpKind distinguishes the three vote-collection rounds.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
	OpReassign
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpReassign:
		return "reassign"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// msg is the one protocol message: a compact tagged union of the ten kinds
// below, keyed by the wire tag byte (wire.go), with tag 0 meaning "no
// message" — a replica's abstention, a pure barrier. There is no second
// representation: the replica reads it, the codec encodes it and the
// transports carry it. It is kept to 64 bytes, one cache line and the
// largest value Go copies and zeroes inline rather than through
// runtime.duffcopy/duffzero: the counts have the int32 widths the wire
// already uses, and a histReply's row is held by reference. Cluster stores a
// round's request once, as one body that every queued delivery refers to,
// and handles it by pointer from there: passed and returned by value through
// every layer, a fatter union spent 43% of the serving profile in
// duffcopy/duffzero (DESIGN §18).
//
// Fields each kind carries (everything else stays zero):
//
//	voteRequest   op — asks a peer for its vote and copy state
//	voteReply     from votes value stamp version qr qw — the peer's votes and
//	              complete copy state
//	syncState     value stamp version qr qw votesSeen — the coordinator's
//	              merged view (newest assignment, freshest value), the paper's
//	              rule that a component updates assignments and version
//	              vectors on contact. A component-wide round's push carries
//	              its collected vote total, so it goes to every peer that
//	              answered and each records it for the §4.2 on-line density
//	              estimate; a strategy round's carries none and goes only to
//	              the peers whose reply differed from the merged view (at a
//	              current peer it would change nothing)
//	applyWrite    value stamp wantAck — installs a new value; with wantAck (the
//	              fault-hardened protocol, chaos.go) the peer confirms, and a
//	              write commits only when acknowledged copies hold a write
//	              quorum of votes
//	applyAck      from stamp — the peer applied (or already held) a value at or
//	              above stamp
//	installAssign qr qw version value stamp — installs a new assignment with
//	              the current value (the refresh that makes extreme
//	              reassignments safe)
//	histRequest   (nothing) — asks a peer for its observation histogram
//	histReply     from weights — the peer's histogram row, by reference (nil:
//	              no observations)
//	heartbeat     from seq — a failure-detector probe
//	heartbeatAck  from seq votes version — the peer's votes (the quorum-probe
//	              half) and assignment version (the convergence-check half)
type msg struct {
	tag       byte
	op        OpKind
	wantAck   bool
	from      int32
	votes     int32
	votesSeen int32
	qr, qw    int32
	value     int64
	stamp     int64
	version   int64
	seq       int64
	weights   *[]float64
}

// row is the histogram a histReply carries, nil when it carries none.
func (m *msg) row() []float64 {
	if m.weights == nil {
		return nil
	}
	return *m.weights
}

// copy is the copy state a message carries.
func (m *msg) copy() quorum.Copy {
	return quorum.Copy{Value: m.value, Stamp: m.stamp, Version: m.version, QR: int(m.qr), QW: int(m.qw)}
}

// setCopy makes s the copy state the message carries.
func (m *msg) setCopy(s quorum.Copy) {
	m.value, m.stamp, m.version = s.Value, s.Stamp, s.Version
	m.qr, m.qw = int32(s.QR), int32(s.QW)
}

// stateMsg is a message of the given kind carrying copy state s.
func stateMsg(tag byte, s quorum.Copy) (m msg) {
	m.tag = tag
	m.setCopy(s)
	return m
}

// message is one queued delivery of a body: the sites it travels between
// and the index of its msg in the drain's body list, so a fan-out to N
// targets queues N 24-byte entries over one body. rank is its place in the delivery
// order while a fault source is attached (see admit).
type message struct {
	from, to int32
	body     int32
	rank     int64
}

// Stats counts message traffic.
type Stats struct {
	Sent      int64
	Delivered int64
	Dropped   int64 // lost to partitions or down nodes
}

// Cluster is the deterministic message-passing runtime: the shared
// coordinator over a single-threaded queue transport. Reachability is
// delegated to a graph.State shared with the failure generator.
type Cluster struct {
	coordinator
	nodes []replica
	queue []message
	// bodies holds every message of the drain in flight, each stored once:
	// a round's request, and each reply where its replica writes it. The
	// queue refers to them by index; drain empties the list.
	bodies []msg
	inbox  []msg // replies delivered to the coordinator of the round in flight
	stats  Stats

	// wireMode round-trips every body through the binary codec, once,
	// where it is stored (see wire.go), encoding into the one reused wire
	// buffer.
	wireMode bool
	wire     []byte

	// With a fault source attached, the queue from drain's head up to
	// admitted holds the undelivered messages in rank order, and the rest
	// the messages sent since the last admission; seq numbers the admitted
	// copies.
	admitted int
	seq      uint64
}

// New creates a cluster over the network state with the given initial
// assignment at version 1. Votes are taken from the state.
func New(st *graph.State, initial quorum.Assignment) (*Cluster, error) {
	c := &Cluster{nodes: make([]replica, st.Graph().N())}
	if err := c.init(c, st, initial); err != nil {
		return nil, err
	}
	return c, nil
}

// Stats returns cumulative message statistics.
func (c *Cluster) Stats() Stats { return c.stats }

// NodeStamp returns node i's value stamp.
func (c *Cluster) NodeStamp(i int) int64 { return c.nodes[i].Stamp }

// NodeValue returns node i's locally stored value (for state-equality
// checks; a read round may return a newer value from a peer).
func (c *Cluster) NodeValue(i int) int64 { return c.nodes[i].Value }

// FailSite marks site i down in the shared network state.
func (c *Cluster) FailSite(i int) { c.st.FailSite(i) }

// RepairSite marks site i up in the shared network state.
func (c *Cluster) RepairSite(i int) { c.st.RepairSite(i) }

// FailLink marks link l down in the shared network state.
func (c *Cluster) FailLink(l int) { c.st.FailLink(l) }

// RepairLink marks link l up in the shared network state.
func (c *Cluster) RepairLink(l int) { c.st.RepairLink(l) }

// EffectiveAssignment runs a vote round to discover the assignment in
// effect at node x's component.
func (c *Cluster) EffectiveAssignment(x int) (quorum.Assignment, int64, bool) {
	return c.effectiveAssignment(x)
}

// ---- The deterministic transport -----------------------------------------

func (c *Cluster) siteUp(x int) bool   { return c.st.SiteUp(x) }
func (c *Cluster) lock(x int) *replica { return &c.nodes[x] }
func (c *Cluster) unlock(int)          {}
func (c *Cluster) sent() int64         { return c.stats.Sent }
func (c *Cluster) traffic() Stats      { return c.stats }

// enter is free: the deterministic runtime runs one operation at a time on
// one goroutine, so the slot is always its own.
func (c *Cluster) enter(bool) (exit func()) { return func() {} }

// exchange posts req to every target; the replies addressed to x
// accumulate in the inbox. A down site's component is -1, so SameComponent
// alone tells whether the topology lets x reach a target.
func (c *Cluster) exchange(x int, targets []int, req msg) ([]msg, int) {
	c.inbox = c.inbox[:0]
	expected := 0
	for _, to := range targets {
		if to != x && c.st.SameComponent(x, to) {
			expected++
		}
	}
	c.post(x, targets, req)
	return c.inbox, expected
}

// post stores m once and queues it to every target, then drains the queue
// to completion.
func (c *Cluster) post(x int, targets []int, m msg) {
	b := c.body(&m)
	for _, to := range targets {
		if to != x {
			c.send(x, to, b)
		}
	}
	c.drain(x)
}

// body stores m in the drain's body list and returns its index: the one
// copy made of a message. In wire mode it is round-tripped through the codec
// here, once, however many targets it is queued to.
func (c *Cluster) body(m *msg) int32 {
	b := len(c.bodies)
	c.bodies = append(c.bodies, *m)
	if c.wireMode {
		c.roundTrip(&c.bodies[b])
	}
	return int32(b)
}

// send queues body from one site to another. Partition filtering happens at
// delivery time.
func (c *Cluster) send(from, to int, body int32) {
	c.queue = append(c.queue, message{from: int32(from), to: int32(to), body: body})
	c.stats.Sent++
	c.observeMsg(obs.EvMsgSend, c.queue[len(c.queue)-1])
}

// drop accounts one message lost in transit.
func (c *Cluster) drop(m message) {
	c.stats.Dropped++
	c.observeMsg(obs.EvMsgDrop, m)
}

// deliver hands one message to its destination, or drops it when it cannot
// currently be delivered: both endpoints must be in the same component
// (which a down site is in with no one) and the direction not cut by an
// active partition. A reply is collected for the coordinator of the round in
// flight — provided the sender it claims is the site it came from: the
// decoder accepts any from, and the rounds index by it, so a forged or
// corrupted one is lost here. A request goes to the replica, which writes
// whatever it answers into a new body.
func (c *Cluster) deliver(coordinator int, m message) {
	if !c.st.SameComponent(int(m.from), int(m.to)) || c.partBlocked(int(m.from), int(m.to)) {
		c.drop(m)
		return
	}
	switch b := &c.bodies[m.body]; b.tag {
	case tagVoteReply, tagApplyAck, tagHistReply, tagHeartbeatAck:
		if b.from != m.from {
			c.drop(m)
			return
		}
		c.stats.Delivered++
		c.observeMsg(obs.EvMsgRecv, m)
		if int(m.to) == coordinator {
			c.inbox = append(c.inbox, *b)
		}
	default:
		c.stats.Delivered++
		c.observeMsg(obs.EvMsgRecv, m)
		r := len(c.bodies)
		c.bodies = slices.Grow(c.bodies, 1)[:r+1] // receive zeroes the reply first
		if c.nodes[m.to].receive(&c.bodies[m.body], &c.bodies[r]); c.bodies[r].tag == 0 {
			return // an abstention: its empty body is never queued
		}
		if c.wireMode {
			c.roundTrip(&c.bodies[r])
		}
		c.send(int(m.to), int(m.from), int32(r))
	}
}

// drain delivers queued messages, and whatever they trigger, until the
// queue is empty, then empties the body list. Without a fault source the
// queue is delivered in send order; with one, every delivery first admits
// what was sent since the last.
func (c *Cluster) drain(coordinator int) {
	for head := 0; ; head++ {
		if c.chaos != nil {
			c.admit(head)
		}
		if head == len(c.queue) {
			break
		}
		c.deliver(coordinator, c.queue[head])
	}
	c.queue, c.bodies, c.admitted = c.queue[:0], c.bodies[:0], 0
}

// admit passes the messages sent since the last admission through the fault
// source, in send order. A dropped message leaves the queue; every other
// message, and its duplicate if any, is placed among the undelivered ones,
// which start at head. A duplicate refers to the same body.
func (c *Cluster) admit(head int) {
	ch := c.chaos
	for c.admitted < len(c.queue) {
		m := c.queue[c.admitted]
		c.queue = slices.Delete(c.queue, c.admitted, c.admitted+1)
		d := ch.src.Message(ch.op, stageOf(c.bodies[m.body].tag), int(m.from), int(m.to), ch.attempt)
		if d.Drop {
			c.faultCounts.MsgDropped++
			c.drop(m)
			continue
		}
		c.place(head, m, d)
		if d.Duplicate {
			c.faultCounts.MsgDuplicated++
			c.stats.Sent++ // the twin is an extra transmission
			c.observeMsg(obs.EvMsgSend, m)
			c.place(head, m, d)
		}
	}
}

// place ranks one admitted message copy and inserts it at the upper bound of
// its rank among the undelivered ones. Ranks are spaced by 16 so a delay of
// k slots moves a message past k later sends, and a reorder jumps it ahead
// of the previous send without colliding with it; seq only grows, so equal
// ranks are delivered in admission order. MsgDelayed and MsgReordered count
// copies: a delayed duplicate counts twice.
func (c *Cluster) place(head int, m message, d faults.Decision) {
	m.rank = int64(c.seq) * 16
	c.seq++
	if d.Delay > 0 {
		m.rank += int64(d.Delay) * 16
		c.faultCounts.MsgDelayed++
	}
	if d.Reorder {
		m.rank -= 24
		c.faultCounts.MsgReordered++
	}
	pending := c.queue[head:c.admitted]
	at := head + sort.Search(len(pending), func(i int) bool { return pending[i].rank > m.rank })
	c.queue = slices.Insert(c.queue, at, m)
	c.admitted++
}
