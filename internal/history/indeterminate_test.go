package history

import (
	"strings"
	"testing"
)

// An indeterminate write that later surfaces in a read serializes at that
// read; subsequent reads of it are consistent.
func TestIndeterminateWriteSurfacesAndCommits(t *testing.T) {
	var l Log
	l.RecordWrite(0, true, 10, 100, 1)
	l.RecordIndeterminateWrite(1, 20, 200, 2)
	l.RecordRead(2, true, 10, 100, 3) // committed state still visible
	l.RecordRead(3, true, 20, 200, 4) // pending write surfaces — commits here
	l.RecordRead(4, true, 20, 200, 5) // and stays committed
	if err := l.Check(); err != nil {
		t.Fatalf("legal history rejected: %v", err)
	}
}

// After an indeterminate write surfaces, reads may not fall back to the
// older committed state.
func TestStaleReadAfterSurfaceIsViolation(t *testing.T) {
	var l Log
	l.RecordWrite(0, true, 10, 100, 1)
	l.RecordIndeterminateWrite(1, 20, 200, 2)
	l.RecordRead(2, true, 20, 200, 3) // surfaces
	l.RecordRead(3, true, 10, 100, 4) // regression to the pre-surface state
	err := l.Check()
	if err == nil || !strings.Contains(err.Error(), "stale read") {
		t.Fatalf("stale read after surface not caught: %v", err)
	}
}

// A read may not invent a stamp that is neither committed nor pending, and
// may not return a wrong value for a pending stamp.
func TestUnknownAndCorruptPendingReads(t *testing.T) {
	var l Log
	l.RecordWrite(0, true, 10, 100, 1)
	l.RecordRead(1, true, 99, 300, 2) // no such write, granted or pending
	if err := l.Check(); err == nil {
		t.Fatal("read of a never-written stamp accepted")
	}

	var l2 Log
	l2.RecordIndeterminateWrite(0, 20, 200, 1)
	l2.RecordRead(1, true, 21, 200, 2) // pending stamp, wrong value
	if err := l2.Check(); err == nil {
		t.Fatal("read of pending stamp with corrupted value accepted")
	}
}

// A granted write whose stamp collides with a pending write of a different
// value indicates a stamp-uniqueness failure in the protocol.
func TestPendingStampCollision(t *testing.T) {
	var l Log
	l.RecordIndeterminateWrite(0, 20, 200, 1)
	l.RecordWrite(1, true, 30, 200, 2)
	err := l.Check()
	if err == nil || !strings.Contains(err.Error(), "collides") {
		t.Fatalf("stamp collision not caught: %v", err)
	}
	// The same stamp with the same value is fine (a retry that succeeded).
	var l2 Log
	l2.RecordIndeterminateWrite(0, 20, 200, 1)
	l2.RecordWrite(1, true, 20, 200, 2)
	if err := l2.Check(); err != nil {
		t.Fatalf("retried write rejected: %v", err)
	}
}

// A committed write prunes pending writes at or below its stamp: they can
// never surface afterwards.
func TestCommitPrunesPending(t *testing.T) {
	var l Log
	l.RecordIndeterminateWrite(0, 20, 200, 1)
	l.RecordWrite(1, true, 30, 300, 2)
	l.RecordRead(2, true, 20, 200, 3) // pruned pending write resurfaces — stale
	if err := l.Check(); err == nil {
		t.Fatal("pruned pending write allowed to surface")
	}
}

// Histories without indeterminate records keep the original semantics.
func TestBackwardCompatiblePlainHistories(t *testing.T) {
	var l Log
	l.RecordRead(0, true, 0, 0, 1) // initial state
	l.RecordWrite(1, true, 10, 100, 2)
	l.RecordRead(2, true, 10, 100, 3)
	l.RecordWrite(3, false, 99, 0, 4) // denied write, ignored
	l.RecordRead(4, true, 10, 100, 5)
	if err := l.Check(); err != nil {
		t.Fatalf("legal plain history rejected: %v", err)
	}
	l.RecordWrite(5, true, 11, 100, 6) // non-increasing stamp
	if err := l.Check(); err == nil {
		t.Fatal("non-monotonic write stamp accepted")
	}
}

// A write loss retires a pending write: its stamp may be reissued with a
// different value, and its value may no longer surface in a read. This is
// the amnesiac-coordinator scenario — the only disk holding a partial
// apply was wiped, and the rejoined node (having forgotten the stamp it
// issued) derives the same one again for a fresh write.
func TestWriteLossRetiresPending(t *testing.T) {
	var l Log
	l.RecordIndeterminateWrite(0, 20, 200, 1)
	l.RecordWriteLoss(0, 200, 2)
	l.RecordWrite(1, true, 30, 200, 3) // reissued stamp, new value: legal
	l.RecordRead(2, true, 30, 200, 4)
	if err := l.Check(); err != nil {
		t.Fatalf("reissue after loss rejected: %v", err)
	}

	// After the loss, the lost value must never surface.
	var l2 Log
	l2.RecordIndeterminateWrite(0, 20, 200, 1)
	l2.RecordWriteLoss(0, 200, 2)
	l2.RecordRead(1, true, 20, 200, 3)
	if err := l2.Check(); err == nil {
		t.Fatal("lost pending write allowed to surface")
	}
}
