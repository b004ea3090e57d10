package store

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"quorumkit/internal/faults"
)

// --- recording disk: captures every mutating disk operation so the sweep
// can replay any prefix of the physical write history.

type diskOp struct {
	kind byte // 'a' append, 's' sync, 't' truncate, 'r' rename, 'm' remove
	name string
	to   string
	data []byte
	n    int
}

type recDisk struct {
	mem *MemDisk
	ops *[]diskOp
}

func newRecDisk() *recDisk {
	ops := []diskOp{}
	return &recDisk{mem: NewMemDisk(), ops: &ops}
}

func (d *recDisk) Open(name string) File {
	return &recFile{d: d, name: name, f: d.mem.Open(name)}
}

func (d *recDisk) Rename(o, n string) {
	*d.ops = append(*d.ops, diskOp{kind: 'r', name: o, to: n})
	d.mem.Rename(o, n)
}

func (d *recDisk) Remove(name string) {
	*d.ops = append(*d.ops, diskOp{kind: 'm', name: name})
	d.mem.Remove(name)
}

func (d *recDisk) Crash() { d.mem.Crash() }

type recFile struct {
	d    *recDisk
	name string
	f    File
}

func (f *recFile) Append(p []byte) {
	*f.d.ops = append(*f.d.ops, diskOp{kind: 'a', name: f.name, data: append([]byte(nil), p...)})
	f.f.Append(p)
}

func (f *recFile) Sync() {
	*f.d.ops = append(*f.d.ops, diskOp{kind: 's', name: f.name})
	f.f.Sync()
}

func (f *recFile) Truncate(n int) {
	*f.d.ops = append(*f.d.ops, diskOp{kind: 't', name: f.name, n: n})
	f.f.Truncate(n)
}

func (f *recFile) Contents() []byte { return f.f.Contents() }
func (f *recFile) Len() int         { return f.f.Len() }

// replayOps rebuilds the disk image after the first i physical operations.
func replayOps(ops []diskOp, i int) *MemDisk {
	m := NewMemDisk()
	for _, op := range ops[:i] {
		switch op.kind {
		case 'a':
			m.Open(op.name).Append(op.data)
		case 's':
			m.Open(op.name).Sync()
		case 't':
			m.Open(op.name).Truncate(op.n)
		case 'r':
			m.Rename(op.name, op.to)
		case 'm':
			m.Remove(op.name)
		}
	}
	return m
}

func histEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sweepOracle is the ground truth the crash-point sweep checks recovery
// against: the fold of every logical append prefix, plus per-physical-op
// bounds on which prefixes a recovery may legally land on.
type sweepOracle struct {
	folds []State
	hists [][]float64

	spanEnd       []int // ops length after each API call
	spanCommitted []int // committed fold index after the call (-1 = none)
	spanTotal     []int // appends issued after the call
}

// buildSweepScript drives a NodeStore through bootstrap, appends, syncs and
// a compaction, recording the physical op stream and the logical oracle.
func buildSweepScript() ([]diskOp, *sweepOracle) {
	rd := newRecDisk()
	s := Open(rd, 4) // compact every 4 appends: the sweep crosses compaction
	o := &sweepOracle{}
	committed := -1
	cur := State{Version: 1, QR: 2, QW: 2}
	var hist []float64
	o.folds = append(o.folds, cur)
	o.hists = append(o.hists, nil)

	span := func(f func()) {
		f()
		o.spanEnd = append(o.spanEnd, len(*rd.ops))
		o.spanCommitted = append(o.spanCommitted, committed)
		o.spanTotal = append(o.spanTotal, len(o.folds)-1)
	}

	span(func() { s.Reset(cur, nil); committed = 0 })
	for j := 1; j <= 9; j++ {
		st := State{
			Value:   int64(100 + j),
			Stamp:   int64(j)<<10 | 1,
			Version: int64(1 + j/3),
			QR:      2 + j%2,
			QW:      3 - j%2,
		}
		span(func() {
			s.PutState(st)
			cur.Adopt(st)
			o.folds = append(o.folds, cur)
			o.hists = append(o.hists, append([]float64(nil), hist...))
		})
		if j%2 == 0 {
			votes := j % 5
			span(func() {
				s.PutObservation(votes)
				for len(hist) <= votes {
					hist = append(hist, 0)
				}
				hist[votes]++
				o.folds = append(o.folds, cur)
				o.hists = append(o.hists, append([]float64(nil), hist...))
			})
		}
		if j%2 == 1 {
			span(func() { s.Sync(); committed = len(o.folds) - 1 })
		}
	}
	span(func() { s.Sync(); committed = len(o.folds) - 1 })
	return *rd.ops, o
}

// bounds returns the legal recovered-fold range for a crash cut after the
// first i physical ops: committed (-1 when bootstrap never completed) is
// the floor, total the ceiling.
func (o *sweepOracle) bounds(i int) (committed, total int) {
	committed, total = -1, 0
	for q := range o.spanEnd {
		if o.spanEnd[q] <= i {
			committed, total = o.spanCommitted[q], o.spanTotal[q]
			continue
		}
		total = o.spanTotal[q] // cut lands inside this call
		break
	}
	return committed, total
}

// checkRecovery recovers from disk m and asserts the recovered state is a
// fold of some legal logical-append prefix: never less than what the last
// completed Sync sealed (no acknowledged write lost), never more than what
// was ever appended.
func checkRecovery(t *testing.T, o *sweepOracle, m *MemDisk, i int, label string) {
	t.Helper()
	s := Open(m, 4)
	st, hist, err := s.Recover()
	committed, total := o.bounds(i)
	if err != nil {
		if errors.Is(err, ErrNoState) && committed == -1 {
			return // crash inside bootstrap: the store never promised anything
		}
		t.Fatalf("%s: recovery failed with committed fold %d: %v", label, committed, err)
	}
	for m := total; m >= 0; m-- {
		if st == o.folds[m] && histEq(hist, o.hists[m]) {
			if m < committed {
				t.Fatalf("%s: recovered fold %d < committed %d (acknowledged write lost)",
					label, m, committed)
			}
			return
		}
	}
	t.Fatalf("%s: recovered state %+v (hist %v) is not a prefix fold", label, st, hist)
}

// TestCrashPointSweep is the tentpole validation: crash after every
// physical disk operation AND after every surviving prefix length of every
// unsynced write (torn write), then recover, asserting the recovered state
// is always a committed prefix of the logical append sequence. ~10⁴
// recoveries, exhaustive over the script's write history.
func TestCrashPointSweep(t *testing.T) {
	ops, o := buildSweepScript()
	recoveries := 0
	for i := 0; i <= len(ops); i++ {
		base := replayOps(ops, i)
		// Plain crash: every unsynced suffix lost.
		{
			m := base.clone()
			m.Crash()
			checkRecovery(t, o, m, i, fmt.Sprintf("cut %d", i))
			recoveries++
		}
		// Torn crash: for each file, each proper prefix of its unsynced
		// suffix survives.
		for _, name := range base.sortedNames() {
			u := base.unsyncedLen(name)
			for k := 1; k <= u; k++ {
				m := base.clone()
				m.tear(name, k)
				m.Crash()
				checkRecovery(t, o, m, i, fmt.Sprintf("cut %d torn %s@%d", i, name, k))
				recoveries++
			}
		}
	}
	if recoveries < 1000 {
		t.Fatalf("sweep only exercised %d crash points", recoveries)
	}
}

// TestBitflipSweep flips every bit of every durable byte of the final disk
// image and recovers. Corruption of sealed state must surface as ErrCorrupt
// — never as a silently wrong or regressed state; flips that land on
// superseded content may recover the full state.
func TestBitflipSweep(t *testing.T) {
	ops, o := buildSweepScript()
	final := replayOps(ops, len(ops))
	full := o.folds[len(o.folds)-1]
	fullHist := o.hists[len(o.hists)-1]
	size := final.durableSize()
	if size == 0 {
		t.Fatal("final image empty")
	}
	for pos := 0; pos < size; pos++ {
		for bit := uint(0); bit < 8; bit++ {
			m := final.clone()
			m.flipBit(pos, bit)
			m.Crash()
			s := Open(m, 4)
			st, hist, err := s.Recover()
			if err != nil {
				continue // detected: the node goes amnesiac, which is safe
			}
			if st != full || !histEq(hist, fullHist) {
				t.Fatalf("flip byte %d bit %d: silent divergence: %+v vs %+v",
					pos, bit, st, full)
			}
		}
	}
}

// TestRoundTrip: puts survive a sync + crash; the estimator history rides
// along.
func TestRoundTrip(t *testing.T) {
	s := Open(NewMemDisk(), 0)
	boot := State{Version: 1, QR: 2, QW: 2}
	s.Reset(boot, nil)
	s.PutState(State{Value: 42, Stamp: 1 << 10, Version: 1, QR: 2, QW: 2})
	s.PutObservation(3)
	s.PutObservation(3)
	s.PutObservation(1)
	s.Sync()
	s.Crash()
	st, hist, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Value != 42 || st.Stamp != 1<<10 {
		t.Fatalf("recovered %+v", st)
	}
	if !histEq(hist, []float64{0, 1, 0, 2}) {
		t.Fatalf("recovered hist %v", hist)
	}
	c := s.Counters()
	if c.Appends != 4 || c.Syncs != 1 || c.TruncateRepairs != 0 || c.CorruptRecoveries != 0 {
		t.Fatalf("counters %+v", c)
	}
}

// TestUnsyncedLostOnCrash: appends after the last Sync are gone; the
// recovered state is exactly the sealed one.
func TestUnsyncedLostOnCrash(t *testing.T) {
	s := Open(NewMemDisk(), 0)
	s.Reset(State{Version: 1, QR: 2, QW: 2}, nil)
	s.PutState(State{Value: 1, Stamp: 1 << 10, Version: 1, QR: 2, QW: 2})
	s.Sync()
	s.PutState(State{Value: 2, Stamp: 2 << 10, Version: 1, QR: 2, QW: 2})
	// no sync
	s.Crash()
	st, _, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Value != 1 || st.Stamp != 1<<10 {
		t.Fatalf("unsynced write survived: %+v", st)
	}
}

// TestDoubleCrashAfterRepair: a torn tail is physically truncated, so the
// store keeps working — and surviving a second crash — after the repair.
func TestDoubleCrashAfterRepair(t *testing.T) {
	mem := NewMemDisk()
	s := Open(mem, 0)
	s.Reset(State{Version: 1, QR: 2, QW: 2}, nil)
	s.PutState(State{Value: 1, Stamp: 1 << 10, Version: 1, QR: 2, QW: 2})
	s.Sync()
	s.PutState(State{Value: 2, Stamp: 2 << 10, Version: 1, QR: 2, QW: 2})
	// Tear the unsynced append mid-record, then crash.
	if u := mem.unsyncedLen(logName); u < 2 {
		t.Fatalf("expected unsynced log bytes, got %d", u)
	} else {
		mem.tear(logName, u/2)
	}
	s.Crash()
	st, _, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Value != 1 {
		t.Fatalf("recovered %+v", st)
	}
	if s.Counters().TruncateRepairs == 0 {
		t.Fatal("torn tail not counted as repair")
	}
	// The repaired store must keep full service.
	s.PutState(State{Value: 3, Stamp: 3 << 10, Version: 1, QR: 2, QW: 2})
	s.Sync()
	s.Crash()
	st, _, err = s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Value != 3 {
		t.Fatalf("post-repair write lost: %+v", st)
	}
}

// TestCorruptSealedDetected: a bit flip inside the sealed log region must
// surface as ErrCorrupt, not as silent repair.
func TestCorruptSealedDetected(t *testing.T) {
	mem := NewMemDisk()
	s := Open(mem, 0)
	s.Reset(State{Version: 1, QR: 2, QW: 2}, nil)
	s.PutState(State{Value: 7, Stamp: 1 << 10, Version: 1, QR: 2, QW: 2})
	s.Sync()
	logLen := len(mem.Open(logName).Contents())
	if logLen == 0 {
		t.Fatal("no sealed log bytes")
	}
	// Flip a payload bit of the sealed record.
	f := mem.files[logName]
	f.data[recHeaderLen+2] ^= 0x10
	s.Crash()
	if _, _, err := s.Recover(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt sealed log recovered with err=%v", err)
	}
	if s.Counters().CorruptRecoveries != 1 {
		t.Fatalf("counters %+v", s.Counters())
	}
}

// TestWipeIsNoState: a wiped medium reports ErrNoState.
func TestWipeIsNoState(t *testing.T) {
	mem := NewMemDisk()
	s := Open(mem, 0)
	s.Reset(State{Version: 1, QR: 2, QW: 2}, nil)
	s.PutState(State{Value: 9, Stamp: 1 << 10, Version: 1, QR: 2, QW: 2})
	s.Sync()
	mem.Wipe()
	if _, _, err := s.Recover(); !errors.Is(err, ErrNoState) {
		t.Fatalf("wiped disk recovered with err=%v", err)
	}
}

// TestCompactionReplay: crossing many compactions keeps the log bounded
// and recovery exact.
func TestCompactionReplay(t *testing.T) {
	mem := NewMemDisk()
	s := Open(mem, 8)
	s.Reset(State{Version: 1, QR: 3, QW: 3}, nil)
	var want State
	want = State{Version: 1, QR: 3, QW: 3}
	for j := 1; j <= 100; j++ {
		st := State{Value: int64(j), Stamp: int64(j) << 10, Version: int64(1 + j/10),
			QR: 3, QW: 3}
		s.PutState(st)
		want.Adopt(st)
		s.PutObservation(j % 6)
		s.Sync()
	}
	if s.Counters().Snapshots < 10 {
		t.Fatalf("only %d compactions over 200 appends", s.Counters().Snapshots)
	}
	if logLen := mem.Open(logName).Len(); logLen > 16*(recHeaderLen+stateLen+recCRCLen) {
		t.Fatalf("log not compacted: %d bytes", logLen)
	}
	s.Crash()
	st, hist, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st != want {
		t.Fatalf("recovered %+v want %+v", st, want)
	}
	total := 0.0
	for _, w := range hist {
		total += w
	}
	if total != 100 {
		t.Fatalf("recovered %v observations, want 100", total)
	}
}

// TestResetDiscardsHistory: Reset after (simulated) rejoin leaves no trace
// of the old identity.
func TestResetDiscardsHistory(t *testing.T) {
	s := Open(NewMemDisk(), 0)
	s.Reset(State{Version: 1, QR: 2, QW: 2}, nil)
	s.PutState(State{Value: 5, Stamp: 5 << 10, Version: 2, QR: 3, QW: 3})
	s.Sync()
	adopted := State{Value: 11, Stamp: 9 << 10, Version: 4, QR: 1, QW: 5}
	s.Reset(adopted, []float64{1, 2})
	s.Crash()
	st, hist, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st != adopted || !histEq(hist, []float64{1, 2}) {
		t.Fatalf("recovered %+v %v", st, hist)
	}
}

// TestFoldOrderIndependence: state records replayed in any order land on
// the same fold — the property that makes recovery runtime-agnostic.
func TestFoldOrderIndependence(t *testing.T) {
	recs := []State{
		{Value: 1, Stamp: 1 << 10, Version: 1, QR: 2, QW: 2},
		{Value: 2, Stamp: 5 << 10, Version: 3, QR: 3, QW: 1},
		{Value: 3, Stamp: 3 << 10, Version: 2, QR: 1, QW: 3},
		{Value: 4, Stamp: 4 << 10, Version: 5, QR: 2, QW: 2},
	}
	var want State
	for _, r := range recs {
		want.Adopt(r)
	}
	src := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		perm := src.Perm(len(recs))
		var got State
		for _, i := range perm {
			got.Adopt(recs[i])
		}
		if got != want {
			t.Fatalf("order %v folded to %+v, want %+v", perm, got, want)
		}
	}
}

// TestFaultDiskDeterminism: the same plan over the same crash history
// inflicts identical damage — recovered states match byte for byte.
func TestFaultDiskDeterminism(t *testing.T) {
	run := func() (States []State, errs []error) {
		mix, _ := faults.NamedDisk("disk-all")
		plan := faults.NewDiskPlan(11, mix)
		mem := NewMemDisk()
		s := Open(mem, 8)
		s.SetDisk(NewFaultDisk(mem, plan, 3))
		s.Reset(State{Version: 1, QR: 2, QW: 2}, nil)
		for j := 1; j <= 30; j++ {
			s.PutState(State{Value: int64(j), Stamp: int64(j) << 10, Version: 1, QR: 2, QW: 2})
			if j%3 != 0 {
				s.Sync()
			}
			if j%5 == 0 {
				s.Crash()
				st, _, err := s.Recover()
				States = append(States, st)
				errs = append(errs, err)
				if err != nil {
					// Amnesia: a rejoin would Reset; simulate that.
					s.Reset(State{Value: 1000 + int64(j), Stamp: int64(j)<<10 | 7,
						Version: 2, QR: 2, QW: 2}, nil)
				}
			}
		}
		return
	}
	s1, e1 := run()
	s2, e2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("recovered states diverged:\n%v\n%v", s1, s2)
	}
	for i := range e1 {
		if (e1[i] == nil) != (e2[i] == nil) {
			t.Fatalf("recovery errors diverged at %d: %v vs %v", i, e1[i], e2[i])
		}
	}
}

// TestFaultDiskWipe: a wipe-only plan always loses everything at crash.
func TestFaultDiskWipe(t *testing.T) {
	plan := faults.NewDiskPlan(1, faults.DiskMix{Name: "w", Wipe: 1})
	mem := NewMemDisk()
	s := Open(mem, 0)
	s.SetDisk(NewFaultDisk(mem, plan, 0))
	s.Reset(State{Version: 1, QR: 2, QW: 2}, nil)
	s.PutState(State{Value: 1, Stamp: 1 << 10, Version: 1, QR: 2, QW: 2})
	s.Sync()
	s.Crash()
	if _, _, err := s.Recover(); !errors.Is(err, ErrNoState) {
		t.Fatalf("wipe plan recovered with err=%v", err)
	}
}

// TestFaultDiskTornAlwaysRecoverable: torn writes alone never cost sealed
// state — every recovery succeeds with at least the last synced fold.
func TestFaultDiskTornAlwaysRecoverable(t *testing.T) {
	plan := faults.NewDiskPlan(5, faults.DiskMix{Name: "t", Torn: 1})
	mem := NewMemDisk()
	s := Open(mem, 8)
	s.SetDisk(NewFaultDisk(mem, plan, 2))
	s.Reset(State{Version: 1, QR: 2, QW: 2}, nil)
	var sealed State
	sealed = State{Version: 1, QR: 2, QW: 2}
	for j := 1; j <= 40; j++ {
		st := State{Value: int64(j), Stamp: int64(j) << 10, Version: 1, QR: 2, QW: 2}
		s.PutState(st)
		if j%2 == 0 {
			s.Sync()
			sealed.Adopt(st)
		}
		if j%7 == 0 {
			s.Crash()
			got, _, err := s.Recover()
			if err != nil {
				t.Fatalf("crash %d: torn-only plan went amnesiac: %v", j, err)
			}
			if got.Stamp < sealed.Stamp {
				t.Fatalf("crash %d: sealed stamp %d regressed to %d", j, sealed.Stamp, got.Stamp)
			}
			sealed = got // tail survivors may advance the fold; new floor
		}
	}
}

// TestNegativeObservationIgnored guards the uint32 encoding.
func TestNegativeObservationIgnored(t *testing.T) {
	s := Open(NewMemDisk(), 0)
	s.Reset(State{Version: 1, QR: 2, QW: 2}, nil)
	s.PutObservation(-3)
	s.Sync()
	s.Crash()
	_, hist, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 0 {
		t.Fatalf("negative observation persisted: %v", hist)
	}
}

// TestObservationBoundSurvivesCompaction: the widest observation the store
// accepts still fits its own snapshot, one at maxBins is ignored, and a
// log record claiming one is damage — so a compaction never writes a
// snapshot that recovery rejects, and a healthy node never goes amnesiac.
func TestObservationBoundSurvivesCompaction(t *testing.T) {
	for _, votes := range []int{maxBins - 1, maxBins} {
		s := Open(NewMemDisk(), 4)
		s.Reset(State{Version: 1, QR: 2, QW: 2}, nil)
		s.PutObservation(votes)
		for j := 1; j <= 4; j++ {
			s.PutState(State{Value: int64(j), Stamp: int64(j) << 10, Version: 1, QR: 2, QW: 2})
			s.Sync()
		}
		if s.Counters().Snapshots == 0 {
			t.Fatalf("votes=%d: no compaction", votes)
		}
		s.Crash()
		_, hist, err := s.Recover()
		if err != nil {
			t.Fatalf("votes=%d: recover after compaction: %v", votes, err)
		}
		if kept := votes < maxBins; kept != (len(hist) == votes+1 && hist[votes] == 1) {
			t.Fatalf("votes=%d: recovered %d bins, want the observation kept=%v", votes, len(hist), kept)
		}
	}
	var st State
	var hist []float64
	if _, _, err := foldLog(encodeObsRec(maxBins), &st, &hist, true); err == nil {
		t.Fatal("an observation record at maxBins replayed clean")
	}
}

// TestDurableWriteAllocs holds the durable write path to zero allocations:
// none per write between compactions (records and seals are framed in the
// store's scratch buffer and the disk appends in place), and none per
// compaction cycle (snap.tmp reopens the spare the previous rename left,
// the old snapshot's file and buffer).
func TestDurableWriteAllocs(t *testing.T) {
	const snapEvery = 64 // two appends a write: one compaction per 32 writes
	s := Open(NewMemDisk(), snapEvery)
	s.Reset(State{Version: 1, QR: 2, QW: 2}, []float64{1, 2, 3})
	i := 0
	write := func() {
		i++
		s.PutState(State{Value: int64(i), Stamp: int64(i) << 10, Version: 1, QR: 2, QW: 2})
		s.PutObservation(i % 3)
		s.Sync()
	}
	for k := 0; k < 4*snapEvery; k++ { // warm-up: every buffer reaches its size
		write()
	}
	for s.appends != 0 { // start just after a compaction
		write()
	}
	snaps := s.Counters().Snapshots
	if n := testing.AllocsPerRun(snapEvery/2-2, write); n != 0 {
		t.Errorf("a durable write allocates %.2f objects, want 0", n)
	}
	if got := s.Counters().Snapshots; got != snaps {
		t.Fatalf("%d compactions inside the between-compactions window", got-snaps)
	}
	cycle := func() {
		for k := 0; k < snapEvery/2; k++ {
			write()
		}
	}
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Errorf("a compaction cycle allocates %.1f objects, want 0", n)
	}
	if got := s.Counters().Snapshots - snaps; got != 11 {
		t.Fatalf("%d compactions in 11 cycles", got)
	}
}

// freshDisk is a MemDisk that never reuses a file: it removes a rename's
// target first, so the replaced file is dropped rather than kept as the
// spare, as MemDisk did before it kept one.
type freshDisk struct{ *MemDisk }

func (d freshDisk) Rename(oldName, newName string) {
	if _, ok := d.files[oldName]; ok && oldName != newName {
		d.Remove(newName)
	}
	d.MemDisk.Rename(oldName, newName)
}

// TestSpareFileIsInvisible: many compactions, crashes and recoveries on a
// MemDisk that reuses the replaced snapshot's file leave Dump byte for byte
// what a disk that never reuses one leaves, after every step.
func TestSpareFileIsInvisible(t *testing.T) {
	reuse, fresh := NewMemDisk(), freshDisk{NewMemDisk()}
	a, b := Open(reuse, 5), Open(fresh, 5)
	a.Reset(State{Version: 1, QR: 2, QW: 2}, []float64{1, 2})
	b.Reset(State{Version: 1, QR: 2, QW: 2}, []float64{1, 2})
	reused := 0
	for i := 1; i <= 200; i++ {
		for _, s := range []*NodeStore{a, b} {
			s.PutState(State{Value: int64(i), Stamp: int64(i) << 10, Version: 1 + int64(i/50), QR: 2, QW: 2})
			s.PutObservation(i % 4)
			if i%3 != 0 {
				s.Sync()
			}
			if i%17 == 0 {
				s.Crash()
				if _, _, err := s.Recover(); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
		}
		if reuse.spare != nil {
			reused++
		}
		if !reflect.DeepEqual(reuse.Dump(), fresh.Dump()) {
			t.Fatalf("write %d: Dump %v, never-reusing disk %v", i, reuse.Dump(), fresh.Dump())
		}
	}
	if c := a.Counters(); c.Snapshots < 30 || reused == 0 || fresh.spare != nil {
		t.Fatalf("%d compactions, spare held after %d writes, fresh spare %v", c.Snapshots, reused, fresh.spare)
	}
}

// TestLogFormatPinned holds the on-disk bytes of a short history — a
// compaction, then a state record, an observation record, their seal, and
// one unsynced state record — so the format moves only on purpose.
func TestLogFormatPinned(t *testing.T) {
	mem := NewMemDisk()
	s := Open(mem, 3)
	s.Reset(State{Version: 1, QR: 2, QW: 2}, nil)
	s.PutState(State{Value: 42, Stamp: 1 << 10, Version: 1, QR: 2, QW: 3})
	s.PutObservation(3)
	s.Sync()
	s.PutState(State{Value: -7, Stamp: 2<<10 | 3, Version: 2, QR: 3, QW: 2})
	s.Sync() // third append: compacts to generation 2
	s.PutState(State{Value: 5, Stamp: 3 << 10, Version: 2, QR: 3, QW: 2})
	s.PutObservation(1)
	s.Sync()
	s.PutState(State{Value: 6, Stamp: 4 << 10, Version: 2, QR: 3, QW: 2})
	// One string a record: header, fields, CRC-32C (checked against a
	// bitwise CRC-32C when the golden was made).
	want := map[string][2]string{
		snapName: {"514b5331" + "0200000000000000" + "44000000" + // magic, gen 2, payload length
			"f9ffffffffffffff" + "0308000000000000" + "0200000000000000" + "03000000" + "02000000" +
			"04000000" + "0000000000000000" + "0000000000000000" + "0000000000000000" + "000000000000f03f" +
			"d4bc6dfd", ""},
		sealName: {"0200000000000000" + "00000000" + "3d1d8349" +
			"0200000000000000" + "36000000" + "f9aa87b3", ""},
		logName: {"01" + "20000000" + "0500000000000000" + "000c000000000000" + "0200000000000000" + "03000000" + "02000000" + "ef2216c6" +
			"02" + "04000000" + "01000000" + "179a2caa",
			"01" + "20000000" + "0600000000000000" + "0010000000000000" + "0200000000000000" + "03000000" + "02000000" + "27bc4fb6"},
	}
	got := mem.Dump()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, []string{logName, sealName, snapName}) {
		t.Fatalf("files %v", names)
	}
	for name, f := range got {
		if h := [2]string{hex.EncodeToString(f.Synced), hex.EncodeToString(f.Unsynced)}; h != want[name] {
			t.Errorf("%s: synced %s unsynced %s\nwant synced %s unsynced %s",
				name, h[0], h[1], want[name][0], want[name][1])
		}
	}
}

// refFile is the reference the one-buffer MemDisk is checked against: the
// synced and unsynced content of a file kept in two slices, every Sync
// copying one onto the other.
type refFile struct{ synced, unsynced []byte }

type refDisk map[string]*refFile

func (d refDisk) file(name string) *refFile {
	if d[name] == nil {
		d[name] = &refFile{}
	}
	return d[name]
}

func (d refDisk) sortedNames() []string {
	out := make([]string, 0, len(d))
	for name := range d {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (d refDisk) dump() map[string]DumpedFile {
	out := make(map[string]DumpedFile, len(d))
	for name, f := range d {
		out[name] = DumpedFile{
			Synced:   append([]byte(nil), f.synced...),
			Unsynced: append([]byte(nil), f.unsynced...),
		}
	}
	return out
}

func (f *refFile) truncate(n int) {
	if n <= len(f.synced) {
		f.synced, f.unsynced = f.synced[:n], nil
	} else if keep := n - len(f.synced); keep < len(f.unsynced) {
		f.unsynced = f.unsynced[:keep]
	}
}

// TestMemDiskMatchesModel runs seeded random Append/Sync/Truncate/Crash/
// tear/flipBit/Rename/Remove sequences on MemDisk and on the two-slice
// reference, comparing Dump, Len, Contents and durableSize after every step.
func TestMemDiskMatchesModel(t *testing.T) {
	names := []string{"a", "b", "c"}
	for seed := int64(1); seed <= 20; seed++ {
		src := rand.New(rand.NewSource(seed))
		d, ref := NewMemDisk(), refDisk{}
		for step := 0; step < 400; step++ {
			name := names[src.Intn(len(names))]
			var op string
			switch k := src.Intn(16); {
			case k < 6:
				op = "append"
				p := make([]byte, src.Intn(9))
				src.Read(p)
				d.Open(name).Append(p)
				f := ref.file(name)
				f.unsynced = append(f.unsynced, p...)
			case k < 9:
				op = "sync"
				d.Open(name).Sync()
				f := ref.file(name)
				f.synced, f.unsynced = append(f.synced, f.unsynced...), nil
			case k < 11:
				f := ref.file(name)
				n := src.Intn(len(f.synced) + len(f.unsynced) + 3)
				op = fmt.Sprintf("truncate %d", n)
				d.Open(name).Truncate(n)
				f.truncate(n)
			case k < 12:
				op = "crash"
				d.Crash()
				for _, f := range ref {
					f.unsynced = nil
				}
			case k < 13:
				f := ref.file(name)
				keep := src.Intn(len(f.unsynced) + 2)
				op = fmt.Sprintf("tear %d", keep)
				d.Open(name) // the reference just created it too
				d.tear(name, keep)
				if keep > 0 {
					keep = min(keep, len(f.unsynced))
					f.synced, f.unsynced = append(f.synced, f.unsynced[:keep]...), nil
				}
			case k < 14:
				total := 0
				for _, f := range ref {
					total += len(f.synced)
				}
				pos, bit := src.Intn(total+2), uint(src.Intn(8))
				op = fmt.Sprintf("flip %d.%d", pos, bit)
				d.flipBit(pos, bit)
				for _, n := range ref.sortedNames() {
					if f := ref[n]; pos < len(f.synced) {
						f.synced[pos] ^= 1 << bit
						break
					}
					pos -= len(ref[n].synced)
				}
			case k < 15:
				to := names[src.Intn(len(names))]
				op = "rename to " + to
				d.Rename(name, to)
				if f, ok := ref[name]; ok {
					delete(ref, name)
					ref[to] = f
				}
			default:
				op = "remove"
				d.Remove(name)
				delete(ref, name)
			}
			label := fmt.Sprintf("seed %d step %d %s %s", seed, step, op, name)
			if !reflect.DeepEqual(d.Dump(), ref.dump()) {
				t.Fatalf("%s: Dump %v, reference %v", label, d.Dump(), ref.dump())
			}
			durable := 0
			for n, f := range ref {
				durable += len(f.synced)
				want := append(append([]byte(nil), f.synced...), f.unsynced...)
				if got := d.Open(n).Contents(); !bytes.Equal(got, want) {
					t.Fatalf("%s: %s Contents %x, reference %x", label, n, got, want)
				}
				if got := d.Open(n).Len(); got != len(want) {
					t.Fatalf("%s: %s Len %d, reference %d", label, n, got, len(want))
				}
			}
			if got := d.durableSize(); got != durable {
				t.Fatalf("%s: durableSize %d, reference %d", label, got, durable)
			}
		}
	}
}
