package cluster

import (
	"sync"
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
)

func TestAsyncBasicReadWrite(t *testing.T) {
	st := graph.NewState(graph.Ring(5), nil)
	a, err := NewAsync(st, quorum.Assignment{QR: 2, QW: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if !a.Write(1, 77) {
		t.Fatal("write denied all-up")
	}
	v, stamp, ok := a.Read(4)
	if !ok || v != 77 || stamp != 1 {
		t.Fatalf("read (%d,%d,%v)", v, stamp, ok)
	}
	if a.MessagesSent() == 0 {
		t.Fatal("no messages counted")
	}
}

func TestAsyncPartitionBehaviour(t *testing.T) {
	g := graph.Path(5)
	st := graph.NewState(g, nil)
	a, err := NewAsync(st, quorum.Assignment{QR: 2, QW: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if !a.Write(2, 10) {
		t.Fatal("initial write denied")
	}
	a.FailLink(g.EdgeIndex(1, 2))
	if a.Write(0, 11) {
		t.Fatal("write granted with 2 of 4 votes")
	}
	if v, _, ok := a.Read(0); !ok || v != 10 {
		t.Fatalf("read on small side (%d,%v)", v, ok)
	}
	a.RepairLink(g.EdgeIndex(1, 2))
	if !a.Write(0, 12) {
		t.Fatal("write denied after heal")
	}
	if v, _, ok := a.Read(4); !ok || v != 12 {
		t.Fatalf("read after heal (%d,%v)", v, ok)
	}
}

func TestAsyncDownCoordinator(t *testing.T) {
	st := graph.NewState(graph.Ring(4), nil)
	a, err := NewAsync(st, quorum.Majority(4))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.FailSite(2)
	if _, _, ok := a.Read(2); ok {
		t.Fatal("down coordinator read granted")
	}
	if a.Write(2, 1) {
		t.Fatal("down coordinator write granted")
	}
	if err := a.Reassign(2, quorum.ReadOneWriteAll(4)); err == nil {
		t.Fatal("down coordinator reassign granted")
	}
}

func TestAsyncReassign(t *testing.T) {
	st := graph.NewState(graph.Ring(5), nil)
	a, err := NewAsync(st, quorum.Majority(5))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Reassign(0, quorum.ReadOneWriteAll(5)); err != nil {
		t.Fatal(err)
	}
	// Under ROWA a single site reads; with one site down nobody writes.
	a.FailSite(3)
	if _, _, ok := a.Read(1); !ok {
		t.Fatal("ROWA read denied")
	}
	if a.Write(1, 9) {
		t.Fatal("ROWA write granted with a site down")
	}
	if err := a.Reassign(1, quorum.Assignment{QR: 1, QW: 4}); err == nil {
		t.Fatal("invalid assignment accepted")
	}
}

// TestAsyncAgreesWithSyncCluster drives identical schedules through the
// concurrent and deterministic runtimes; all observable outcomes must
// match. Run with -race this also certifies the locking discipline.
func TestAsyncAgreesWithSyncCluster(t *testing.T) {
	g := graph.Complete(7)
	stS := graph.NewState(g, nil)
	stA := graph.NewState(g, nil)
	syncC, err := New(stS, quorum.Majority(7))
	if err != nil {
		t.Fatal(err)
	}
	asyncC, err := NewAsync(stA, quorum.Majority(7))
	if err != nil {
		t.Fatal(err)
	}
	defer asyncC.Close()
	src := rng.New(909)
	for step := 0; step < 2500; step++ {
		switch src.Intn(9) {
		case 0:
			i := src.Intn(7)
			stS.FailSite(i)
			asyncC.FailSite(i)
		case 1:
			i := src.Intn(7)
			stS.RepairSite(i)
			asyncC.RepairSite(i)
		case 2:
			l := src.Intn(g.M())
			stS.FailLink(l)
			asyncC.FailLink(l)
		case 3:
			l := src.Intn(g.M())
			stS.RepairLink(l)
			asyncC.RepairLink(l)
		case 4, 5:
			x := src.Intn(7)
			if gs, ga := syncC.Write(x, int64(step)), asyncC.Write(x, int64(step)); gs != ga {
				t.Fatalf("step %d: write grant mismatch", step)
			}
		case 6, 7:
			x := src.Intn(7)
			vs, ss, oks := syncC.Read(x)
			va, sa, oka := asyncC.Read(x)
			if oks != oka || (oks && (vs != va || ss != sa)) {
				t.Fatalf("step %d: read mismatch (%d,%d,%v) vs (%d,%d,%v)",
					step, vs, ss, oks, va, sa, oka)
			}
		case 8:
			x := src.Intn(7)
			qr := 1 + src.Intn(3)
			aq := quorum.Assignment{QR: qr, QW: 7 - qr + 1}
			es := syncC.Reassign(x, aq)
			ea := asyncC.Reassign(x, aq)
			if (es == nil) != (ea == nil) {
				t.Fatalf("step %d: reassign mismatch: %v vs %v", step, es, ea)
			}
		}
	}
}

// TestAsyncConcurrentClients hammers the runtime from many goroutines to
// exercise the op serialization and node locking under -race. Grants can
// differ from any serial schedule; the test only asserts absence of
// crashes, deadlocks and torn state.
func TestAsyncConcurrentClients(t *testing.T) {
	st := graph.NewState(graph.Complete(9), nil)
	a, err := NewAsync(st, quorum.Majority(9))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src := rng.New(uint64(c) + 100)
			for i := 0; i < 300; i++ {
				x := src.Intn(9)
				switch src.Intn(4) {
				case 0:
					a.Write(x, int64(i))
				case 1:
					a.Read(x)
				case 2:
					a.FailSite(src.Intn(9))
				case 3:
					a.RepairSite(src.Intn(9))
				}
			}
		}(c)
	}
	wg.Wait()
	// Heal and verify a final read works and is consistent.
	for i := 0; i < 9; i++ {
		a.RepairSite(i)
	}
	if !a.Write(0, 424242) {
		t.Fatal("final write denied on healed network")
	}
	v, _, ok := a.Read(8)
	if !ok || v != 424242 {
		t.Fatalf("final read (%d, %v)", v, ok)
	}
}

func TestAsyncLocalDensity(t *testing.T) {
	st := graph.NewState(graph.Ring(5), nil)
	a, err := NewAsync(st, quorum.Majority(5))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if ownDensity(t, &a.coordinator, 0) != nil {
		t.Fatal("density before any round")
	}
	a.Write(0, 1)
	a.Read(2)
	for i := 0; i < 5; i++ {
		f := ownDensity(t, &a.coordinator, i)
		if f == nil || f[5] != 1 {
			t.Fatalf("node %d density %v, want all mass at 5", i, f)
		}
	}
	a.FailSite(4)
	a.Read(0)
	f := ownDensity(t, &a.coordinator, 0)
	if f[4] == 0 {
		t.Fatalf("node 0 missed the 4-vote round: %v", f)
	}
}

func BenchmarkAsyncWrite101(b *testing.B) {
	st := graph.NewState(graph.Complete(101), nil)
	a, err := NewAsync(st, quorum.Majority(101))
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Write(i%101, int64(i))
	}
}
