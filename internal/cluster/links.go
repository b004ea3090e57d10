package cluster

import (
	"sync/atomic"

	"quorumkit/internal/faults"
)

// Scheduled link faults, enforced by both transports. A faults.LinkSchedule
// is a pure timetable of cuts and slowdowns keyed by one logical clock; the
// harness advances the clock with SetPartitionTime once per step, every
// message whose (from, to) direction is cut at the current time is silently
// lost in transit, and every round trip is stretched by the direction's
// slowdown slots (gray.go). Because the schedule is consulted per
// *direction*, asymmetric one-way cuts ("A hears B, B doesn't hear A")
// fall out naturally, and because it is evaluated at the transport — not
// folded into graph.State — a cut never changes the component structure
// the protocol reasons about: nodes on both sides still believe the peers
// exist and time their rounds out, exactly like a real network partition.
//
// The clock is deliberately external rather than derived from the
// operation counter: degraded-mode fast-fails skip the op bump, so an
// op-derived clock would drift between daemon-on and daemon-off replays
// of the same scenario.
//
// Partition losses are counted separately from the fault plan's chaos
// counters: the two runtimes intentionally keep ChaosCounters comparable
// message for message, while partition-drop totals legitimately differ
// (the deterministic runtime admits duplicates before the partition eats
// them; the concurrent one suppresses the send).

// linkFaults is a runtime's scheduled-link-fault state. The clock and drop
// counter are atomics because the concurrent runtime's background daemon
// may race harness steps.
type linkFaults struct {
	sched *faults.LinkSchedule
	now   atomic.Int64
	drops atomic.Int64
}

// EnableLinkFaults attaches a link schedule. Pass nil to detach. Call
// before any concurrent operations; the schedule must not be mutated
// afterwards except from the single harness goroutine between steps.
func (k *coordinator) EnableLinkFaults(ls *faults.LinkSchedule) {
	k.links.sched = ls
}

// SetPartitionTime advances the schedule clock. Call once per harness
// step, before the step's operations.
func (k *coordinator) SetPartitionTime(t int64) { k.links.now.Store(t) }

// PartitionDrops returns how many messages the schedule's cuts have eaten
// so far.
func (k *coordinator) PartitionDrops() int64 { return k.links.drops.Load() }

// cut reports whether the schedule cuts the (from, to) direction right now.
func (k *coordinator) cut(from, to int) bool {
	return k.links.sched != nil && k.links.sched.Blocked(k.links.now.Load(), from, to)
}

// partBlocked is cut for a message in transit: it counts the loss. Without
// a schedule it is one inlined nil check.
func (k *coordinator) partBlocked(from, to int) bool {
	return k.links.sched != nil && k.dropCut(from, to)
}

// dropCut is partBlocked with a schedule attached, out of line.
func (k *coordinator) dropCut(from, to int) bool {
	if !k.cut(from, to) {
		return false
	}
	k.links.drops.Add(1)
	return true
}

// rtt is the modeled round trip of a probe from x to p and back, in
// delivery slots: the fault-free grayBaseRTT plus the schedule's slowdown
// of each direction right now.
func (k *coordinator) rtt(x, p int) int64 {
	return scheduleRTT(k.links.sched, k.links.now.Load(), x, p)
}
