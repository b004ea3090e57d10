package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"quorumkit/internal/graph"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/stats"
)

// Async is the concurrent runtime: the same coordinator as Cluster over a
// goroutine-per-node transport. Every node runs as a goroutine draining an
// inbox, and a protocol round is a scatter/gather — the coordinator fans a
// request out to the peers reachable in its component and gathers their
// replies in parallel.
//
// Concurrency model: one client operation is in flight at a time (the
// paper's accesses are instantaneous and never overlap), but within an
// operation all peer work — vote evaluation, state merging, write
// application — happens concurrently across nodes, and topology mutations
// are excluded only during the reachability snapshot. The implementation is
// exercised under -race, and its observable behaviour is cross-checked
// against the deterministic Cluster.
//
// How the fault plan maps onto a real concurrent transport: a dropped
// request is never delivered; a dropped reply leaves the request delivered
// (the peer's state changes!) with nowhere to answer; a duplicate is
// delivered twice (coordinators dedup by sender); a delay is forwarded by a
// goroutine after delay×tick of real time; and since arrival order is
// already nondeterministic here, a reorder is modeled as one extra delay
// slot. Message-level counters therefore legitimately differ from the
// deterministic runtime's, while every decision — a function of the
// delivered message set, never of arrival order — is identical under
// delay-free plans (see the cross-check tests).
type Async struct {
	coordinator
	// topoMu guards the network state: operations take RLock to snapshot
	// reachability; topology mutations take Lock.
	topoMu sync.RWMutex
	// opMu serializes client operations.
	opMu  sync.Mutex
	nodes []*asyncNode
	wg    sync.WaitGroup

	msgs  atomic.Int64 // messages sent
	inbox []msg        // the replies of the round in flight (under opMu)

	// daemonStop, when non-nil, stops the background daemon goroutine
	// started by StartDaemon; Close closes it.
	daemonStop chan struct{}
	daemonDone chan struct{}
}

// asyncChaosTick is the real duration of one abstract delay slot or
// backoff tick.
const asyncChaosTick = 50 * time.Microsecond

// asyncNode is one site's goroutine-owned replica.
type asyncNode struct {
	mu    sync.Mutex
	rep   replica
	inbox chan asyncMsg
	quit  chan struct{}
}

// asyncMsg is one delivery: the message (tag 0 for a pure barrier), where to
// put the reply when the sender awaits one, and the group to release once
// the delivery has been processed.
type asyncMsg struct {
	body  msg
	reply chan<- msg
	ack   *sync.WaitGroup
}

// NewAsync starts one goroutine per site. Call Close to stop them.
func NewAsync(st *graph.State, initial quorum.Assignment) (*Async, error) {
	a := &Async{nodes: make([]*asyncNode, st.Graph().N())}
	for i := range a.nodes {
		a.nodes[i] = &asyncNode{
			// One operation is in flight at a time, so a node never has
			// more than a duplicated request queued; the slack only keeps
			// a fan-out from blocking on a node that is still busy.
			inbox: make(chan asyncMsg, 64),
			quit:  make(chan struct{}),
		}
	}
	a.tick = asyncChaosTick
	if err := a.init(a, st, initial); err != nil {
		return nil, err
	}
	for i := range a.nodes {
		a.wg.Add(1)
		go a.run(i)
	}
	return a, nil
}

// Close stops the background daemon (if started) and all node goroutines,
// waiting for them to exit.
func (a *Async) Close() {
	if a.daemonStop != nil {
		close(a.daemonStop)
		<-a.daemonDone
		a.daemonStop = nil
	}
	for _, n := range a.nodes {
		close(n.quit)
	}
	a.wg.Wait()
}

// run is site i's goroutine: hand each delivery to the replica under the
// node lock, route its reply, and release the sender's group. As in the
// deterministic transport, a reply that claims a sender other than the site
// it comes from is lost rather than gathered.
func (a *Async) run(i int) {
	defer a.wg.Done()
	n := a.nodes[i]
	for {
		select {
		case <-n.quit:
			return
		case m := <-n.inbox:
			if m.body.tag != 0 {
				var reply msg
				n.mu.Lock()
				n.rep.receive(&m.body, &reply)
				n.mu.Unlock()
				switch {
				case reply.tag == 0 || m.reply == nil:
				case int(reply.from) != i:
					a.obs.Inc(obs.CMsgDropped)
				default:
					m.reply <- reply
				}
			}
			m.ack.Done()
		}
	}
}

// FailSite / RepairSite / FailLink / RepairLink mutate the topology under
// the exclusive lock, so snapshots never observe a half-applied change.
func (a *Async) FailSite(i int) {
	a.topoMu.Lock()
	defer a.topoMu.Unlock()
	a.st.FailSite(i)
}

// RepairSite marks a site up.
func (a *Async) RepairSite(i int) {
	a.topoMu.Lock()
	defer a.topoMu.Unlock()
	a.st.RepairSite(i)
}

// FailLink marks a link down.
func (a *Async) FailLink(l int) {
	a.topoMu.Lock()
	defer a.topoMu.Unlock()
	a.st.FailLink(l)
}

// RepairLink marks a link up.
func (a *Async) RepairLink(l int) {
	a.topoMu.Lock()
	defer a.topoMu.Unlock()
	a.st.RepairLink(l)
}

// MessagesSent returns the cumulative message count.
func (a *Async) MessagesSent() int64 { return a.sent() }

// ---- The concurrent transport ---------------------------------------------

func (a *Async) sent() int64 { return a.msgs.Load() }

func (a *Async) siteUp(x int) bool {
	a.topoMu.RLock()
	defer a.topoMu.RUnlock()
	return a.st.SiteUp(x)
}

func (a *Async) lock(x int) *replica {
	a.nodes[x].mu.Lock()
	return &a.nodes[x].rep
}

func (a *Async) unlock(x int) { a.nodes[x].mu.Unlock() }

// reachable snapshots which targets the topology lets x reach: up and in
// x's component (none when x itself is down).
func (a *Async) reachable(x int, targets []int) []int {
	a.topoMu.RLock()
	defer a.topoMu.RUnlock()
	var out []int
	for _, p := range targets {
		if p != x && a.st.SiteUp(x) && a.st.SiteUp(p) && a.st.SameComponent(x, p) {
			out = append(out, p)
		}
	}
	return out
}

// admit decides the fate of one message in one direction: how many copies
// the fault plan and the partition schedule let through (0 when lost), and
// by how many slots their delivery is delayed.
func (a *Async) admit(from, to int, stage uint8) (copies, slots int) {
	copies = 1
	if ch := a.chaos; ch != nil {
		d := ch.plan.Message(ch.op, stage, from, to, ch.attempt)
		if d.Drop {
			ch.bump(func(c *stats.ChaosCounters) { c.MsgDropped++ })
			a.obs.Inc(obs.CMsgDropped)
			return 0, 0
		}
		if d.Duplicate {
			copies = 2
			ch.bump(func(c *stats.ChaosCounters) { c.MsgDuplicated++ })
		}
		slots = d.Delay
		if d.Delay > 0 {
			ch.bump(func(c *stats.ChaosCounters) { c.MsgDelayed++ })
		}
		if d.Reorder {
			slots++
			ch.bump(func(c *stats.ChaosCounters) { c.MsgReordered++ })
		}
	}
	if a.partBlocked(from, to) {
		return 0, 0
	}
	return copies, slots
}

// deliver hands one message copy to peer p, after slots ticks of real delay
// when positive. A delayed copy is forwarded by a goroutine; either way the
// copy is released unprocessed if the runtime shuts down first.
func (a *Async) deliver(p int, m asyncMsg, slots int) {
	// Sent and delivered are counted together: the transport call does not
	// return before the copy has been processed.
	a.msgs.Add(1)
	a.obs.Inc(obs.CMsgSent)
	a.obs.Inc(obs.CMsgDelivered)
	m.ack.Add(1)
	n := a.nodes[p]
	if slots <= 0 {
		n.enqueue(m)
		return
	}
	go func() {
		t := time.NewTimer(time.Duration(slots) * a.tick)
		defer t.Stop()
		select {
		case <-t.C:
			n.enqueue(m)
		case <-n.quit:
			m.ack.Done()
		}
	}()
}

// enqueue puts one delivery in the node's inbox, or releases it unprocessed
// when the node has shut down.
func (n *asyncNode) enqueue(m asyncMsg) {
	select {
	case n.inbox <- m:
	case <-n.quit:
		m.ack.Done()
	}
}

// exchange is the scatter/gather round. Each reachable peer's request and
// reply directions are admitted independently, so a request whose reply is
// lost — to the plan or to a one-way cut — still lands and leaves the same
// durable bytes as in the deterministic runtime; a duplicate on either leg
// delivers the request twice. A heartbeat additionally sleeps through the
// gray schedule's slots, so a gray-degraded peer really answers late. The
// round ends when every admitted delivery has been processed.
func (a *Async) exchange(x int, targets []int, req msg) ([]msg, int) {
	reach := a.reachable(x, targets)
	replies := make(chan msg, 2*len(reach))
	var done sync.WaitGroup
	for _, p := range reach {
		copies, slots := a.admit(x, p, stageOf(req.tag))
		if copies == 0 {
			continue
		}
		m := asyncMsg{body: req, ack: &done}
		if back, backSlots := a.admit(p, x, replyStage(req.tag)); back > 0 {
			m.reply = replies
			slots += backSlots
			if back > copies {
				copies = back
			}
		}
		if req.tag == tagHeartbeat {
			slots += a.graySlots(x, p)
		}
		for ; copies > 0; copies-- {
			a.deliver(p, m, slots)
		}
	}
	done.Wait()
	a.inbox = a.inbox[:0]
	for n := len(replies); n > 0; n-- {
		a.inbox = append(a.inbox, <-replies)
	}
	got := int64(len(a.inbox))
	a.msgs.Add(got)
	a.obs.Add(obs.CMsgSent, got)
	a.obs.Add(obs.CMsgDelivered, got)
	return a.inbox, len(reach)
}

// post fans m out to the reachable targets and returns once every admitted
// copy has been processed.
func (a *Async) post(x int, targets []int, m msg) {
	var done sync.WaitGroup
	for _, p := range a.reachable(x, targets) {
		copies, slots := a.admit(x, p, stageOf(m.tag))
		for ; copies > 0; copies-- {
			a.deliver(p, asyncMsg{body: m, ack: &done}, slots)
		}
	}
	done.Wait()
}

// ---- Operations: the coordinator's, serialized on the operation slot ------

// Read performs a quorum read at node x.
func (a *Async) Read(x int) (value int64, stamp int64, granted bool) {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	return a.coordinator.Read(x)
}

// Write performs a quorum write at node x.
func (a *Async) Write(x int, value int64) bool {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	return a.coordinator.Write(x, value)
}

// Reassign installs a new assignment through the QR protocol.
func (a *Async) Reassign(x int, newAssign quorum.Assignment) error {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	return a.coordinator.Reassign(x, newAssign)
}

// ChaosRead performs a fault-hardened read at node x with retries.
func (a *Async) ChaosRead(x int) Outcome {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	return a.coordinator.ChaosRead(x)
}

// ChaosWrite performs a fault-hardened write at node x with retries.
func (a *Async) ChaosWrite(x int, value int64) Outcome {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	return a.coordinator.ChaosWrite(x, value)
}

// ChaosReassign installs a new assignment through the hardened QR protocol
// with retries.
func (a *Async) ChaosReassign(x int, newAssign quorum.Assignment) Outcome {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	return a.coordinator.ChaosReassign(x, newAssign)
}

// Recover brings a crashed node back up (see coordinator.Recover); the
// state-transfer rejoin it may run takes the operation slot.
func (a *Async) Recover(x int) bool {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	return a.coordinator.Recover(x)
}

// TryRejoin attempts the amnesiac state transfer at node x.
func (a *Async) TryRejoin(x int) bool {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	return a.coordinator.TryRejoin(x)
}

// DaemonStep runs one failure-detector tick and daemon decision at node x.
// It occupies one client-operation slot, so the detector's probes and any
// resulting installation serialize with reads and writes.
func (a *Async) DaemonStep(x int) DaemonReport {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	return a.coordinator.DaemonStep(x)
}

// begin takes the operation slot for one serving-layer operation; the
// function it returns releases the slot and records the operation's
// wall-clock latency.
func (a *Async) begin() (end func()) {
	start := time.Now()
	a.opMu.Lock()
	return func() {
		a.opMu.Unlock()
		a.obs.Observe(obs.HOpNanos, time.Since(start).Nanoseconds())
	}
}

// ServeRead is the serving-layer read at node x.
func (a *Async) ServeRead(x int) Outcome {
	defer a.begin()()
	return a.coordinator.ServeRead(x)
}

// ServeWrite is the serving-layer write at node x.
func (a *Async) ServeWrite(x int, value int64) Outcome {
	defer a.begin()()
	return a.coordinator.ServeWrite(x, value)
}

// ServeReadGray runs ServeRead and models its completion latency under the
// gray schedule and the active hedging configuration.
func (a *Async) ServeReadGray(x int) (Outcome, GrayReadStats) {
	defer a.begin()()
	return a.coordinator.ServeReadGray(x)
}

// StartDaemon launches a background goroutine that sweeps DaemonStep over
// every node each interval until Close. It is the deployment shape of the
// daemon; tests and the soak harness call DaemonStep directly for
// schedulable, reproducible ticks.
func (a *Async) StartDaemon(interval time.Duration) {
	a.mustHealth()
	if a.daemonStop != nil {
		return // already running
	}
	a.daemonStop = make(chan struct{})
	a.daemonDone = make(chan struct{})
	go func() {
		defer close(a.daemonDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-a.daemonStop:
				return
			case <-t.C:
				for x := range a.nodes {
					select {
					case <-a.daemonStop:
						return
					default:
					}
					a.DaemonStep(x)
				}
			}
		}
	}()
}
