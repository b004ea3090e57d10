package store

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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
	f.synced[recHeaderLen+2] ^= 0x10
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
