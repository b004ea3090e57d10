package cluster

import (
	"sync/atomic"

	"quorumkit/internal/faults"
	"quorumkit/internal/obs"
)

// Partition schedule, enforced by both transports. A
// faults.PartitionSchedule is a pure timetable of cuts keyed by a logical
// partition clock; the harness
// advances the clock with SetPartitionTime once per step, and every
// message whose (from, to) direction is cut at the current time is
// silently lost in transit. Because the schedule is consulted per
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

// partitions is a runtime's partition state. The clock and drop counter are
// atomics because the concurrent runtime's background daemon may race
// harness steps.
type partitions struct {
	sched *faults.PartitionSchedule
	now   atomic.Int64
	drops atomic.Int64
}

// EnablePartitions attaches a partition schedule. Pass nil to detach. Call
// before any concurrent operations; the schedule must not be mutated
// afterwards except from the single harness goroutine between steps.
func (k *coordinator) EnablePartitions(ps *faults.PartitionSchedule) {
	k.parts.sched = ps
}

// SetPartitionTime advances the partition clock (and the gray latency
// clock, which shares it). Call once per harness step, before the step's
// operations.
func (k *coordinator) SetPartitionTime(t int64) {
	k.parts.now.Store(t)
	if k.gray != nil {
		k.gray.now.Store(t)
	}
}

// PartitionDrops returns how many messages the partition schedule has
// eaten so far.
func (k *coordinator) PartitionDrops() int64 { return k.parts.drops.Load() }

// cut reports whether the partition schedule cuts the (from, to) direction
// right now.
func (k *coordinator) cut(from, to int) bool {
	return k.parts.sched != nil && k.parts.sched.Blocked(k.parts.now.Load(), from, to)
}

// partBlocked is cut for a message in transit: it counts the loss.
func (k *coordinator) partBlocked(from, to int) bool {
	if !k.cut(from, to) {
		return false
	}
	k.parts.drops.Add(1)
	k.obs.Inc(obs.CPartitionDrop)
	return true
}
