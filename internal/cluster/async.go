package cluster

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"quorumkit/internal/graph"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
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
// are excluded only during the reachability snapshot. Async adds no
// operations of its own: the coordinator's methods are its API, and each one
// that touches the coordinator's state takes the operation slot through the
// transport's enter. The implementation is exercised under -race, and its
// observable behaviour is cross-checked against the deterministic Cluster.
//
// How the fault plan maps onto a real concurrent transport: a dropped
// request is never delivered; a dropped reply leaves the request delivered
// (the peer's state changes!) with nowhere to answer; a duplicate is
// delivered twice (coordinators dedup by sender); a delayed copy is held by
// its destination's goroutine for delay×tick of real time; and since arrival
// order is already nondeterministic here, a reorder is modeled as one extra
// delay slot. Message-level counters therefore legitimately differ from the
// deterministic runtime's, while every decision — a function of the
// delivered message set, never of arrival order — is identical under
// delay-free plans (see the cross-check tests).
type Async struct {
	coordinator
	// topoMu guards the network state: operations take RLock to snapshot
	// reachability; topology mutations take Lock.
	topoMu sync.RWMutex
	// opMu is the operation slot (enter): it serializes client operations
	// and owns the coordinator's state above the node lock. exit and
	// exitTimed are enter's two releases, bound once so that entering
	// allocates nothing; start is when the timed operation in the slot
	// began.
	opMu            sync.Mutex
	exit, exitTimed func()
	start           time.Time
	nodes           []*asyncNode
	wg              sync.WaitGroup

	msgs atomic.Int64 // messages sent

	// The round in flight, under opMu and reused because rounds never
	// overlap: the targets it reaches, the channel its replies land on (two
	// per target at most, a request and its duplicate), the replies
	// gathered from it, and the group that waits out its deliveries.
	reach   []int
	replies chan msg
	inbox   []msg
	done    sync.WaitGroup

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
	// held and timer belong to the node's goroutine: the delayed copies it
	// holds until due, in due order, and the one timer, reused, that wakes
	// it when the earliest falls due.
	held  []heldMsg
	timer *time.Timer
}

// asyncMsg is one delivery: the message (tag 0 for a pure barrier), where to
// put the reply when the sender awaits one, the group to release once the
// delivery has been processed, and how long the destination holds it before
// processing it (0: on arrival).
type asyncMsg struct {
	body  msg
	reply chan<- msg
	ack   *sync.WaitGroup
	delay time.Duration
}

// heldMsg is a delayed copy and the time it falls due.
type heldMsg struct {
	due time.Time
	m   asyncMsg
}

// NewAsync starts one goroutine per site. Call Close to stop them.
func NewAsync(st *graph.State, initial quorum.Assignment) (*Async, error) {
	n := st.Graph().N()
	a := &Async{nodes: make([]*asyncNode, n), replies: make(chan msg, 2*n)}
	a.exit, a.exitTimed = a.opMu.Unlock, a.leaveTimed
	for i := range a.nodes {
		a.nodes[i] = &asyncNode{
			// One operation is in flight at a time, so a node never has
			// more than a duplicated request queued; the slack only keeps
			// a fan-out from blocking on a node that is still busy.
			inbox: make(chan asyncMsg, 64),
			quit:  make(chan struct{}),
			timer: time.NewTimer(time.Hour),
		}
		a.nodes[i].timer.Stop() // armed by the first delayed copy
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

// run is site i's goroutine: process each delivery on arrival, or hold a
// delayed one until it falls due, and on shutdown release what it still
// holds or has queued unprocessed, so no sender waits on a stopped node.
func (a *Async) run(i int) {
	defer a.wg.Done()
	n := a.nodes[i]
	for {
		select {
		case <-n.quit:
			n.timer.Stop()
			for _, h := range n.held {
				h.m.ack.Done()
			}
			n.held = nil
			for {
				select {
				case m := <-n.inbox:
					m.ack.Done()
				default:
					return
				}
			}
		case m := <-n.inbox:
			if m.delay > 0 {
				n.hold(m)
				continue
			}
			a.process(i, &m)
		case <-n.timer.C:
			// A wake-up may be early (a tick left over from a reset), so
			// only what is due is taken.
			now := time.Now()
			for len(n.held) > 0 && !n.held[0].due.After(now) {
				m := n.held[0].m
				n.held = slices.Delete(n.held, 0, 1)
				a.process(i, &m)
			}
			if len(n.held) > 0 {
				n.timer.Reset(n.held[0].due.Sub(now))
			}
		}
	}
}

// process hands one delivery to site i's replica under the node lock,
// routes its reply, and releases the sender's group. As in the
// deterministic transport, a reply that claims a sender other than the site
// it comes from is lost rather than gathered.
func (a *Async) process(i int, m *asyncMsg) {
	if m.body.tag != 0 {
		var reply msg
		n := a.nodes[i]
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

// hold adds a delayed copy to the node's held list, kept in due order, and
// resets the timer when the copy is the earliest due. Rounds never overlap,
// so a node holds at most the copies of one round, and a linear insert is
// all the ordering needs.
func (n *asyncNode) hold(m asyncMsg) {
	due := time.Now().Add(m.delay)
	i := len(n.held)
	for i > 0 && due.Before(n.held[i-1].due) {
		i--
	}
	n.held = slices.Insert(n.held, i, heldMsg{due: due, m: m})
	if i == 0 {
		n.timer.Reset(m.delay)
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

// traffic counts every copy sent as delivered, since the transport does not
// return before a copy is processed, and as dropped only what the fault
// source drops; a forged reply is counted straight into the registry.
func (a *Async) traffic() Stats {
	n := a.msgs.Load()
	return Stats{Sent: n, Delivered: n, Dropped: a.faultCounts.MsgDropped}
}

// enter takes the operation slot, opMu. A timed exit records the
// operation's wall-clock latency, the wait for the slot included.
func (a *Async) enter(timed bool) (exit func()) {
	if !timed {
		a.opMu.Lock()
		return a.exit
	}
	start := time.Now()
	a.opMu.Lock()
	a.start = start
	return a.exitTimed
}

// leaveTimed is the timed exit: it releases the slot and records the
// latency of the operation that held it.
func (a *Async) leaveTimed() {
	start := a.start
	a.opMu.Unlock()
	a.obs.Observe(obs.HOpNanos, time.Since(start).Nanoseconds())
}

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
	a.reach = a.reach[:0]
	for _, p := range targets {
		if p != x && a.st.SiteUp(x) && a.st.SiteUp(p) && a.st.SameComponent(x, p) {
			a.reach = append(a.reach, p)
		}
	}
	return a.reach
}

// admit decides the fate of one message in one direction: how many copies
// the fault source and the partition schedule let through (0 when lost), and
// by how many slots their delivery is delayed.
func (a *Async) admit(from, to int, stage uint8) (copies, slots int) {
	copies = 1
	if ch := a.chaos; ch != nil {
		d := ch.src.Message(ch.op, stage, from, to, ch.attempt)
		if d.Drop {
			a.faultCounts.MsgDropped++
			return 0, 0
		}
		if d.Duplicate {
			copies = 2
			a.faultCounts.MsgDuplicated++
		}
		slots = d.Delay
		if d.Delay > 0 {
			a.faultCounts.MsgDelayed++
		}
		if d.Reorder {
			slots++
			a.faultCounts.MsgReordered++
		}
	}
	if a.partBlocked(from, to) {
		return 0, 0
	}
	return copies, slots
}

// deliver hands one message copy to peer p, which processes it slots ticks
// of real time after it arrives when slots is positive (run holds it until
// then). Either way the copy is released unprocessed if the runtime shuts
// down first.
func (a *Async) deliver(p int, m asyncMsg, slots int) {
	// Sent and delivered are counted together: the transport call does not
	// return before the copy has been processed.
	a.msgs.Add(1)
	m.ack.Add(1)
	if slots > 0 {
		m.delay = time.Duration(slots) * a.tick
	}
	a.nodes[p].enqueue(m)
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
	for _, p := range reach {
		copies, slots := a.admit(x, p, stageOf(req.tag))
		if copies == 0 {
			continue
		}
		m := asyncMsg{body: req, ack: &a.done}
		if back, backSlots := a.admit(p, x, replyStage(req.tag)); back > 0 {
			m.reply = a.replies
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
	a.done.Wait()
	a.inbox = a.inbox[:0]
	for n := len(a.replies); n > 0; n-- {
		a.inbox = append(a.inbox, <-a.replies)
	}
	a.msgs.Add(int64(len(a.inbox)))
	return a.inbox, len(reach)
}

// post fans m out to the reachable targets and returns once every admitted
// copy has been processed.
func (a *Async) post(x int, targets []int, m msg) {
	for _, p := range a.reachable(x, targets) {
		copies, slots := a.admit(x, p, stageOf(m.tag))
		for ; copies > 0; copies-- {
			a.deliver(p, asyncMsg{body: m, ack: &a.done}, slots)
		}
	}
	a.done.Wait()
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
