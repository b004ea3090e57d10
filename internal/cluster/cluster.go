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
// order is the enqueue order. Async (async.go) is the concurrent one.
package cluster

import (
	"fmt"

	"quorumkit/internal/core"
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
// transports carry it. It is kept to 80 bytes (the counts have the int32
// widths the wire already uses), copied once per round into the transport
// and once into its queue slot, and handled by pointer from there: passed
// and returned by value through every layer, a fatter union spent 43% of
// the serving profile in duffcopy/duffzero (DESIGN §18).
//
// Fields each kind carries (everything else stays zero):
//
//	voteRequest   op — asks a peer for its vote and copy state
//	voteReply     from votes value stamp version qr qw — the peer's votes and
//	              complete copy state
//	syncState     value stamp version qr qw votesSeen — the coordinator's
//	              merged view (newest assignment, freshest value) pushed to
//	              every peer that answered, the paper's rule that a component
//	              updates assignments and version vectors on contact; it also
//	              carries the round's collected vote total so every participant
//	              can record it for the §4.2 on-line density estimate
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
//	histReply     from weights — the peer's histogram row
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
	weights   []float64
}

// copy is the copy state a message carries.
func (m *msg) copy() copyState {
	return copyState{m.value, m.stamp, m.version, quorum.Assignment{QR: int(m.qr), QW: int(m.qw)}}
}

// setCopy makes s the copy state the message carries.
func (m *msg) setCopy(s copyState) {
	m.value, m.stamp, m.version = s.value, s.stamp, s.version
	m.qr, m.qw = int32(s.assign.QR), int32(s.assign.QW)
}

// stateMsg is a message of the given kind carrying copy state s.
func stateMsg(tag byte, s copyState) (m msg) {
	m.tag = tag
	m.setCopy(s)
	return m
}

// message is an addressed msg.
type message struct {
	from, to int
	body     msg
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
	inbox []msg // replies delivered to the coordinator of the round in flight
	stats Stats
	// published is the part of stats already added to the obs counters;
	// drain publishes the difference once, when the queue is empty.
	published Stats

	// wireMode round-trips every delivered message through the binary
	// codec (see wire.go), encoding into the one reused wire buffer.
	wireMode bool
	wire     []byte

	// heap is the rank-ordered delivery queue the fault-injecting drain
	// uses when a fault plan is attached (see EnableChaos).
	heap []chaosMsg
	seq  uint64
}

// chaosMsg is a queued message with its delivery rank.
type chaosMsg struct {
	rank int64
	seq  uint64
	m    message
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
func (c *Cluster) NodeStamp(i int) int64 { return c.nodes[i].stamp }

// NodeValue returns node i's locally stored value (for state-equality
// checks; a read round may return a newer value from a peer).
func (c *Cluster) NodeValue(i int) int64 { return c.nodes[i].value }

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

// GossipEstimates runs a histogram-collection round from node x: every
// reachable peer ships its observation row, and x assembles a network-wide
// estimator. Unreachable sites are simply absent, which the assembled
// estimator represents as a conservative point mass at zero (the paper's
// §4.3 options are to approximate f_j, use an old value, or wait).
func (c *Cluster) GossipEstimates(x int) (*core.Estimator, error) {
	return c.gossipEstimates(x)
}

// OptimizeLocal runs the Figure-1 algorithm at node x from gossiped
// estimates, with an optional §5.4 write floor (minWrite > 0).
func (c *Cluster) OptimizeLocal(x int, alpha, minWrite float64) (core.Result, error) {
	_, want, err := c.optimizeLocal(x, alpha, minWrite)
	return want, err
}

// ReassignOptimal performs the full §4.3 loop at node x: gossip the
// on-line estimates, compute the optimal assignment, and install it via
// the QR protocol when it differs from the one in effect and predicts an
// improvement of at least hysteresis. It reports whether a reassignment
// was installed.
func (c *Cluster) ReassignOptimal(x int, alpha, minWrite, hysteresis float64) (bool, error) {
	return c.reassignOptimal(x, alpha, minWrite, hysteresis)
}

// ---- The deterministic transport -----------------------------------------

func (c *Cluster) siteUp(x int) bool   { return c.st.SiteUp(x) }
func (c *Cluster) lock(x int) *replica { return &c.nodes[x] }
func (c *Cluster) unlock(int)          {}
func (c *Cluster) sent() int64         { return c.stats.Sent }

// exchange enqueues req to every target and drains the queue to
// completion; the replies addressed to x accumulate in the inbox.
func (c *Cluster) exchange(x int, targets []int, req msg) ([]msg, int) {
	c.inbox = c.inbox[:0]
	expected := 0
	for _, to := range targets {
		if to == x {
			continue
		}
		if c.st.SiteUp(to) && c.st.SameComponent(x, to) {
			expected++
		}
		c.send(x, to, &req)
	}
	c.drain(x)
	return c.inbox, expected
}

// post enqueues m to every target and drains the queue to completion.
func (c *Cluster) post(x int, targets []int, m msg) {
	for _, to := range targets {
		if to != x {
			c.send(x, to, &m)
		}
	}
	c.drain(x)
}

// slot returns the queue's next free slot, growing the queue when it is
// full — which moves it, so a pointer into the queue does not survive a
// slot call that grows. drain therefore reserves a slot before it takes the
// pointer it hands to deliver, which may then fill that one slot (with the
// replica's reply) while still reading the message it delivers.
func (c *Cluster) slot() *message {
	n := len(c.queue)
	if n == cap(c.queue) {
		c.queue = append(c.queue, message{})[:n]
	}
	return &c.queue[:n+1][n]
}

// enqueue sends the message written into slot(). From here on it is touched
// in place, through a pointer into the queue (or the chaos heap). Partition
// filtering happens at delivery time.
func (c *Cluster) enqueue() {
	c.queue = c.queue[:len(c.queue)+1]
	c.stats.Sent++
	c.observeMsg(obs.EvMsgSend, &c.queue[len(c.queue)-1])
}

// send enqueues a copy of body: the one copy made of a request.
func (c *Cluster) send(from, to int, body *msg) {
	m := c.slot()
	m.from, m.to, m.body = from, to, *body
	c.enqueue()
}

// drop accounts one message lost in transit.
func (c *Cluster) drop(m *message) {
	c.stats.Dropped++
	c.observeMsg(obs.EvMsgDrop, m)
}

// deliver hands one message to its destination, or drops it when it cannot
// currently be delivered: both endpoints must be up, in the same component,
// and the direction not cut by an active partition. A reply is collected
// for the coordinator of the round in flight — provided the sender it
// claims is the site it came from: the decoder accepts any from, and the
// rounds index by it, so a forged or corrupted one is lost here. A request
// goes to the replica, which writes whatever it answers straight into the
// next queue slot.
func (c *Cluster) deliver(coordinator int, m *message) {
	if !c.st.SiteUp(m.from) || !c.st.SiteUp(m.to) || !c.st.SameComponent(m.from, m.to) ||
		c.partBlocked(m.from, m.to) {
		c.drop(m)
		return
	}
	if c.wireMode {
		c.roundTrip(&m.body)
	}
	switch m.body.tag {
	case tagVoteReply, tagApplyAck, tagHistReply, tagHeartbeatAck:
		if int(m.body.from) != m.from {
			c.drop(m)
			return
		}
		c.stats.Delivered++
		c.observeMsg(obs.EvMsgRecv, m)
		if m.to == coordinator {
			c.inbox = append(c.inbox, m.body)
		}
	default:
		c.stats.Delivered++
		c.observeMsg(obs.EvMsgRecv, m)
		reply := c.slot() // reserved by drain, so m stays where it is
		reply.from, reply.to = m.to, m.from
		if c.nodes[m.to].receive(&m.body, &reply.body); reply.body.tag != 0 {
			c.enqueue()
		}
	}
}

// drain delivers queued messages, and whatever they trigger, until the
// queue is empty, then publishes the message counters: three adds per drain
// instead of two atomic increments per message. The runtime is
// single-threaded, so no reader can see the counters between two drains.
func (c *Cluster) drain(coordinator int) {
	if c.chaos != nil {
		c.drainChaos(coordinator)
	} else {
		for head := 0; head < len(c.queue); head++ {
			c.slot() // room for the reply before the pointer is taken
			c.deliver(coordinator, &c.queue[head])
		}
		c.queue = c.queue[:0]
	}
	if c.obs != nil {
		c.obs.Add(obs.CMsgSent, c.stats.Sent-c.published.Sent)
		c.obs.Add(obs.CMsgDelivered, c.stats.Delivered-c.published.Delivered)
		c.obs.Add(obs.CMsgDropped, c.stats.Dropped-c.published.Dropped)
	}
	c.published = c.stats
}

// drainChaos is the fault-injecting delivery loop: newly sent messages are
// admitted through the fault plan, then delivered in rank order until both
// the send queue and the delivery heap are empty.
func (c *Cluster) drainChaos(coordinator int) {
	for {
		for i := range c.queue {
			c.admit(&c.queue[i])
		}
		c.queue = c.queue[:0]
		if len(c.heap) == 0 {
			return
		}
		m := c.pop()
		c.deliver(coordinator, &m)
	}
}

// admit passes one sent message through the fault plan and, unless it is
// dropped, pushes it (and a possible duplicate) onto the delivery heap.
func (c *Cluster) admit(m *message) {
	ch := c.chaos
	d := ch.plan.Message(ch.op, stageOf(m.body.tag), m.from, m.to, ch.attempt)
	if d.Drop {
		ch.counters.MsgDropped++
		c.drop(m)
		return
	}
	c.push(m, d)
	if d.Duplicate {
		ch.counters.MsgDuplicated++
		c.stats.Sent++ // the twin is an extra transmission
		c.observeMsg(obs.EvMsgSend, m)
		c.push(m, d)
	}
}

// push enqueues one message copy with its delivery rank. Ranks are spaced
// by 16 so a delay of k slots moves a message past k later sends, and a
// reorder jumps it ahead of the previous send without colliding with it.
func (c *Cluster) push(m *message, d faults.Decision) {
	rank := int64(c.seq) * 16
	if d.Delay > 0 {
		rank += int64(d.Delay) * 16
		c.chaos.counters.MsgDelayed++
	}
	if d.Reorder {
		rank -= 24
		c.chaos.counters.MsgReordered++
	}
	c.heap = append(c.heap, chaosMsg{rank: rank, seq: c.seq, m: *m})
	c.seq++
	// Sift up.
	i := len(c.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !c.less(i, p) {
			break
		}
		c.heap[i], c.heap[p] = c.heap[p], c.heap[i]
		i = p
	}
}

func (c *Cluster) less(i, j int) bool {
	a, b := &c.heap[i], &c.heap[j]
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

// pop removes the minimum-rank message.
func (c *Cluster) pop() message {
	top := c.heap[0].m
	last := len(c.heap) - 1
	c.heap[0] = c.heap[last]
	c.heap = c.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(c.heap) && c.less(l, s) {
			s = l
		}
		if r < len(c.heap) && c.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		c.heap[i], c.heap[s] = c.heap[s], c.heap[i]
		i = s
	}
	return top
}
