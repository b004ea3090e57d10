package history

import (
	"strings"
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/replica"
	"quorumkit/internal/rng"
)

func TestCleanHistoryPasses(t *testing.T) {
	var l Log
	l.RecordRead(0, true, 0, 0, 0.1) // initial read
	l.RecordWrite(1, true, 10, 1, 0.2)
	l.RecordRead(2, true, 10, 1, 0.3)
	l.RecordWrite(0, true, 20, 2, 0.4)
	l.RecordRead(1, false, 0, 0, 0.5) // denied: ignored
	l.RecordRead(1, true, 20, 2, 0.6)
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 6 {
		t.Fatalf("len %d", l.Len())
	}
}

func TestStaleReadDetected(t *testing.T) {
	var l Log
	l.RecordWrite(0, true, 10, 1, 0.1)
	l.RecordWrite(0, true, 20, 2, 0.2)
	l.RecordRead(1, true, 10, 1, 0.3) // stale: stamp 1 after stamp 2
	err := l.Check()
	if err == nil {
		t.Fatal("stale read not detected")
	}
	if !strings.Contains(err.Error(), "stamp 1") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// A read of a stamp no write produced is caught too.
	var l2 Log
	l2.RecordRead(0, true, 0, 5, 0.1)
	if l2.Check() == nil {
		t.Fatal("phantom read not detected")
	}
}

func TestWrongValueDetected(t *testing.T) {
	var l Log
	l.RecordWrite(0, true, 10, 1, 0.1)
	l.RecordRead(1, true, 99, 1, 0.2) // right stamp, wrong value
	if l.Check() == nil {
		t.Fatal("wrong value not detected")
	}
}

func TestNonMonotonicWriteDetected(t *testing.T) {
	var l Log
	l.RecordWrite(0, true, 10, 2, 0.1)
	l.RecordWrite(1, true, 20, 2, 0.2) // duplicate stamp
	if l.Check() == nil {
		t.Fatal("duplicate write stamp not detected")
	}
	var l2 Log
	l2.RecordWrite(0, true, 10, 0, 0.1) // non-positive first stamp
	if l2.Check() == nil {
		t.Fatal("zero first stamp not detected")
	}
}

func TestReadBeforeFirstWrite(t *testing.T) {
	var l Log
	l.RecordRead(0, true, 0, 3, 0.1) // claims a stamp with no writes
	if l.Check() == nil {
		t.Fatal("phantom read not detected")
	}
}

func TestDeniedOpsIgnored(t *testing.T) {
	var l Log
	l.RecordWrite(0, false, 10, 99, 0.1) // denied garbage must not count
	l.RecordRead(1, true, 0, 0, 0.2)
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("kind names")
	}
}

// TestReplicaHistoryClean drives the real replica protocol through a
// failure storm, records every operation, and has the independent checker
// adjudicate the full history.
func TestReplicaHistoryClean(t *testing.T) {
	g := graph.Complete(8)
	st := graph.NewState(g, nil)
	o, err := replica.NewObject(st, quorum.Majority(8))
	if err != nil {
		t.Fatal(err)
	}
	var l Log
	src := rng.New(88)
	now := 0.0
	for step := 0; step < 8000; step++ {
		now += 0.1
		switch src.Intn(8) {
		case 0:
			st.FailSite(src.Intn(8))
		case 1:
			st.RepairSite(src.Intn(8))
		case 2:
			st.FailLink(src.Intn(g.M()))
		case 3:
			st.RepairLink(src.Intn(g.M()))
		case 4, 5:
			site := src.Intn(8)
			v, stamp, ok := o.Read(site)
			l.RecordRead(site, ok, v, stamp, now)
		case 6:
			site := src.Intn(8)
			val := int64(step)
			ok := o.Write(site, val)
			// The write's stamp is the object's latest on success.
			l.RecordWrite(site, ok, val, o.LatestStamp(), now)
		case 7:
			qr := 1 + src.Intn(4)
			_ = o.Reassign(src.Intn(8), quorum.Assignment{QR: qr, QW: 8 - qr + 1})
		}
	}
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
	granted := map[Kind]int{}
	for _, op := range opsOf(&l) {
		if op.Granted {
			granted[op.Kind]++
		}
	}
	if granted[Read] == 0 || granted[Write] == 0 {
		t.Fatalf("degenerate history: %d reads and %d writes granted", granted[Read], granted[Write])
	}
}

// TestBrokenProtocolCaught shows the checker has teeth: a protocol that
// grants reads with an insufficient quorum (violating q_r + q_w > T)
// produces a history the checker rejects.
func TestBrokenProtocolCaught(t *testing.T) {
	// Hand-build the bad interleaving a too-small read quorum permits:
	// a write commits in one partition while a stale copy serves a read in
	// the other.
	var l Log
	l.RecordWrite(0, true, 10, 1, 0.1) // committed in partition A
	// Partition B's copy still has the initial value; the broken protocol
	// grants the read anyway and returns stamp 0.
	l.RecordRead(5, true, 0, 0, 0.2)
	err := l.Check()
	if err == nil {
		t.Fatal("broken protocol history accepted")
	}
	var v Violation
	if !errAs(err, &v) {
		t.Fatalf("unexpected error type %T", err)
	}
	if v.Op.Site != 5 {
		t.Fatalf("violation at wrong op: %+v", v)
	}
}

func errAs(err error, target *Violation) bool {
	v, ok := err.(Violation)
	if ok {
		*target = v
	}
	return ok
}

func TestOpsExposesRecords(t *testing.T) {
	var l Log
	l.RecordWrite(3, true, 9, 1, 0.25)
	ops := opsOf(&l)
	if len(ops) != 1 || ops[0].Site != 3 || ops[0].Kind != Write || ops[0].Time != 0.25 {
		t.Fatalf("ops %+v", ops)
	}
}

// opsOf returns every recorded operation in order, its chunks joined.
func opsOf(l *Log) []Op {
	var ops []Op
	for _, chunk := range l.chunks {
		ops = append(ops, chunk...)
	}
	return ops
}

// TestLogSpansChunks: a history longer than one chunk keeps its total
// order and Seq numbering across the chunk boundaries, and Check sees every
// operation — a violation in the third chunk is found and named.
func TestLogSpansChunks(t *testing.T) {
	var l Log
	n := 2*chunkOps + 10
	for i := 1; i < n; i++ {
		l.RecordWrite(i%5, true, int64(i), int64(i), float64(i))
	}
	l.RecordRead(2, true, 7, 7, float64(n)) // stale: the last write has stamp n-1
	ops := opsOf(&l)
	if l.Len() != n || len(ops) != n || len(l.chunks) != 3 {
		t.Fatalf("%d ops (%d joined) in %d chunks, want %d in 3", l.Len(), len(ops), len(l.chunks), n)
	}
	for i, op := range ops {
		if op.Seq != i {
			t.Fatalf("op %d carries Seq %d", i, op.Seq)
		}
	}
	var v Violation
	if err := l.Check(); !errAs(err, &v) || v.Op.Seq != n-1 {
		t.Fatalf("Check = %v, want the stale read at Seq %d", err, n-1)
	}
}

// BenchmarkLogRecord records 1,000 operations into a new Log per
// iteration: the cost every serving workload's warm-up and every chaos or
// adversary history pays on the set-up side.
func BenchmarkLogRecord(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var l Log
		for k := 0; k < 1000; k++ {
			if k%4 == 0 {
				l.RecordWrite(k%9, true, int64(k), int64(k), float64(k))
			} else {
				l.RecordRead(k%9, true, int64(k), int64(k), float64(k))
			}
		}
	}
}
