// Package history records operation histories of a replicated object and
// checks them for one-copy serializability — the correctness criterion the
// paper requires ("each read reports the value of the most recent write",
// §1 and footnote 2, ensuring one-copy serializability in the sense of
// Bernstein, Hadzilacos & Goodman).
//
// Because the paper's events are instantaneous, every history is totally
// ordered by submission time, and one-copy serializability reduces to three
// checkable conditions over granted operations:
//
//  1. reads-latest: every granted read returns the stamp of the most
//     recent granted write preceding it;
//  2. value match: the value a read returns is the value that write wrote;
//  3. write monotonicity: granted writes carry strictly increasing stamps.
//
// The checker is deliberately independent of the replica and cluster
// implementations so it can adjudicate either (or any third-party
// protocol) from its observable behaviour alone.
package history

import "fmt"

// Kind distinguishes operation types.
type Kind uint8

// Operation kinds.
const (
	Read Kind = iota
	Write
	// Loss retires a pending indeterminate write: the environment has
	// destroyed every copy that held its value (e.g. the sole-holder
	// coordinator's disk was wiped before the value reached any peer), so
	// the value can never surface and its stamp may be reissued.
	Loss
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Loss:
		return "loss"
	default:
		return "write"
	}
}

// Op is one recorded operation.
type Op struct {
	Seq     int // position in the global total order
	Kind    Kind
	Site    int // submitting site
	Granted bool
	Value   int64 // value written, or value returned by a granted read
	Stamp   int64 // stamp written, or stamp returned by a granted read
	Time    float64

	// Indeterminate marks a write that failed without resolving: it was
	// applied at some copies but never acknowledged by a write quorum
	// (partial apply, coordinator crash mid-apply). Such a write is not
	// granted, yet its value may legitimately surface in a later read — at
	// which point it retroactively serializes at that read. Requires a
	// unique Stamp per write so the checker can match the surfaced value.
	Indeterminate bool
}

// Violation describes a detected serializability failure.
type Violation struct {
	Op     Op
	Reason string
}

// Error implements the error interface.
func (v Violation) Error() string {
	return fmt.Sprintf("history: op %d (%v at site %d, t=%g): %s",
		v.Op.Seq, v.Op.Kind, v.Op.Site, v.Op.Time, v.Reason)
}

// chunkOps is the number of operations one chunk of a Log holds.
const chunkOps = 1024

// Log accumulates a totally-ordered history. It stores the operations in
// fixed-size chunks, filled in order, so a long history is appended without
// ever copying what it already holds.
type Log struct {
	chunks [][]Op // every chunk but the last holds chunkOps operations
	n      int
}

// add appends op as the next operation in the total order.
func (l *Log) add(op Op) {
	if l.n%chunkOps == 0 {
		l.chunks = append(l.chunks, make([]Op, 0, chunkOps))
	}
	last := &l.chunks[len(l.chunks)-1]
	op.Seq = l.n
	*last = append(*last, op)
	l.n++
}

// RecordRead appends a read operation.
func (l *Log) RecordRead(site int, granted bool, value, stamp int64, t float64) {
	l.add(Op{Kind: Read, Site: site, Granted: granted, Value: value, Stamp: stamp, Time: t})
}

// RecordWrite appends a write operation.
func (l *Log) RecordWrite(site int, granted bool, value, stamp int64, t float64) {
	l.add(Op{Kind: Write, Site: site, Granted: granted, Value: value, Stamp: stamp, Time: t})
}

// RecordIndeterminateWrite appends a write that neither succeeded nor
// cleanly failed: the value reached some copies (stamp must be the unique
// stamp the attempt issued) and may surface in a later read.
func (l *Log) RecordIndeterminateWrite(site int, value, stamp int64, t float64) {
	l.add(Op{Kind: Write, Site: site, Indeterminate: true, Value: value, Stamp: stamp, Time: t})
}

// RecordWriteLoss appends an event retiring the indeterminate write with
// the given stamp: every copy that held its value has been destroyed, so
// it can never surface in a later read. The canonical source is a crashed
// coordinator whose partial apply reached no peer (the value lived only on
// its own disk) recovering amnesiac — the wipe that forced amnesia also
// erased the sole copy of the pending value. After a loss the stamp may
// legitimately be reissued: the amnesiac coordinator has forgotten it ever
// used it, and no surviving copy pins the old value to it.
func (l *Log) RecordWriteLoss(site int, stamp int64, t float64) {
	l.add(Op{Kind: Loss, Site: site, Stamp: stamp, Time: t})
}

// Len returns the number of recorded operations.
func (l *Log) Len() int { return l.n }

// checker is the state machine behind Check. It tracks
// the committed (stamp, value) — the state every later granted operation
// must be consistent with — plus the set of pending indeterminate writes
// whose values may still surface.
//
// Without indeterminate records the semantics reduce exactly to the three
// conditions in the package comment. With them:
//
//   - a granted write must carry a stamp strictly above the committed one
//     (pending writes may hold higher stamps — they serialize later if
//     they ever surface);
//   - a granted read must return either the committed state exactly, or a
//     pending indeterminate write with a stamp above the committed one. In
//     the latter case that write retroactively serializes here: it becomes
//     the committed state, and every pending write at or below it can
//     never surface again;
//   - a Loss event removes a pending write from consideration: every copy
//     holding its value was destroyed, so it neither constrains later
//     reads nor pins its stamp.
type checker struct {
	committedStamp int64
	committedValue int64
	haveCommit     bool // a granted write or surfaced pending write exists
	pending        map[int64]int64
}

// step advances the checker by one operation, returning a non-empty reason
// on a violation.
func (c *checker) step(op Op) string {
	if op.Kind == Loss {
		// The pending write's last copy is gone: stop expecting its value
		// to surface, and free its stamp for reissue.
		delete(c.pending, op.Stamp)
		return ""
	}
	if op.Indeterminate {
		if op.Kind == Write && op.Stamp > c.committedStamp {
			if c.pending == nil {
				c.pending = make(map[int64]int64)
			}
			c.pending[op.Stamp] = op.Value
		}
		return ""
	}
	if !op.Granted {
		return ""
	}
	switch op.Kind {
	case Write:
		if op.Stamp <= c.committedStamp {
			return fmt.Sprintf("write stamp %d not above committed %d", op.Stamp, c.committedStamp)
		}
		if v, ok := c.pending[op.Stamp]; ok && v != op.Value {
			return fmt.Sprintf("write stamp %d collides with pending write of value %d", op.Stamp, v)
		}
		c.commit(op.Stamp, op.Value)
	case Read:
		switch {
		case op.Stamp == c.committedStamp:
			// The committed value; before any write the initial stamp is 0
			// and the value is unconstrained by the history alone.
			if c.haveCommit && op.Value != c.committedValue {
				return fmt.Sprintf("read returned value %d at stamp %d, committed value is %d",
					op.Value, op.Stamp, c.committedValue)
			}
		case op.Stamp > c.committedStamp:
			v, ok := c.pending[op.Stamp]
			if !ok {
				return fmt.Sprintf("read returned stamp %d, above committed %d but not a pending write",
					op.Stamp, c.committedStamp)
			}
			if v != op.Value {
				return fmt.Sprintf("read returned value %d at stamp %d, pending write wrote %d",
					op.Value, op.Stamp, v)
			}
			// The indeterminate write surfaced: it serializes here.
			c.commit(op.Stamp, op.Value)
		default:
			return fmt.Sprintf("read returned stamp %d, committed state is %d (stale read)",
				op.Stamp, c.committedStamp)
		}
	}
	return ""
}

// commit installs a new committed state and discards pending writes that
// can never surface again (their stamps no longer exceed the committed
// one, so a read returning them would already be a violation).
func (c *checker) commit(stamp, value int64) {
	c.committedStamp, c.committedValue, c.haveCommit = stamp, value, true
	for s := range c.pending {
		if s <= stamp {
			delete(c.pending, s)
		}
	}
}

// Check verifies one-copy serializability of the recorded history and
// returns the first violation, or nil.
func (l *Log) Check() error {
	var c checker
	for _, chunk := range l.chunks {
		for _, op := range chunk {
			if reason := c.step(op); reason != "" {
				return Violation{Op: op, Reason: reason}
			}
		}
	}
	return nil
}
