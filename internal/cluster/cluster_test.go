package cluster

import (
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	oracle "quorumkit/internal/replica"
	"quorumkit/internal/rng"
)

func newCluster(t *testing.T, g *graph.Graph, a quorum.Assignment) (*Cluster, *graph.State) {
	t.Helper()
	st := graph.NewState(g, nil)
	c, err := New(st, a)
	if err != nil {
		t.Fatal(err)
	}
	return c, st
}

func TestBasicReadWrite(t *testing.T) {
	c, _ := newCluster(t, graph.Ring(5), quorum.Assignment{QR: 2, QW: 4})
	if !c.Write(1, 77) {
		t.Fatal("write denied all-up")
	}
	v, stamp, ok := c.Read(4)
	if !ok || v != 77 || stamp != 1 {
		t.Fatalf("read (%d,%d,%v)", v, stamp, ok)
	}
}

func TestPartitionDropsMessages(t *testing.T) {
	g := graph.Path(4)
	c, st := newCluster(t, g, quorum.Assignment{QR: 2, QW: 3})
	st.FailLink(g.EdgeIndex(1, 2))
	before := c.Stats().Dropped
	if c.Write(0, 5) {
		t.Fatal("write granted with 2 of 3 votes")
	}
	if c.Stats().Dropped <= before {
		t.Fatal("partition should drop the cross-cut vote requests")
	}
	// Neither 2-vote side can meet q_w = 3, but both can read (q_r = 2).
	if c.Write(3, 6) {
		t.Fatal("write granted with 2 of 3 votes on the other side")
	}
	if _, _, ok := c.Read(3); !ok {
		t.Fatal("read denied with 2 of 2 votes")
	}
}

func TestPartitionMajoritySide(t *testing.T) {
	g := graph.Path(5) // T=5, QW=4
	c, st := newCluster(t, g, quorum.Assignment{QR: 2, QW: 4})
	st.FailLink(g.EdgeIndex(0, 1)) // {0} | {1,2,3,4}
	if c.Write(0, 1) {
		t.Fatal("singleton wrote")
	}
	if !c.Write(2, 9) {
		t.Fatal("4-vote side denied")
	}
	// Reads on the small side: 1 vote < QR=2 → denied.
	if _, _, ok := c.Read(0); ok {
		t.Fatal("singleton read granted")
	}
	st.RepairLink(g.EdgeIndex(0, 1))
	v, _, ok := c.Read(0)
	if !ok || v != 9 {
		t.Fatalf("post-merge read (%d,%v)", v, ok)
	}
	if c.NodeStamp(0) != 1 {
		t.Fatal("merge did not refresh node 0")
	}
}

func TestDownNodeDenied(t *testing.T) {
	c, st := newCluster(t, graph.Ring(4), quorum.Assignment{QR: 1, QW: 4})
	st.FailSite(2)
	if _, _, ok := c.Read(2); ok {
		t.Fatal("down node read")
	}
	if c.Write(2, 1) {
		t.Fatal("down node write")
	}
	if err := c.Reassign(2, quorum.Majority(4)); err == nil {
		t.Fatal("down node reassign")
	}
	if _, _, ok := c.EffectiveAssignment(2); ok {
		t.Fatal("down node effective assignment")
	}
}

func TestReassignProtocol(t *testing.T) {
	g := graph.Ring(5)
	c, _ := newCluster(t, g, quorum.Assignment{QR: 2, QW: 4})
	if err := c.Reassign(0, quorum.ReadOneWriteAll(5)); err != nil {
		t.Fatal(err)
	}
	a, ver, ok := c.EffectiveAssignment(3)
	if !ok || a.QR != 1 || a.QW != 5 || ver != 2 {
		t.Fatalf("effective %v v%d", a, ver)
	}
	// Under ROWA a 4-of-5 component cannot write or reassign.
	st := c.st
	st.FailSite(4)
	if c.Write(0, 3) {
		t.Fatal("ROWA write granted with a site down")
	}
	if err := c.Reassign(0, quorum.Majority(5)); err == nil {
		t.Fatal("reassign without full write quorum")
	}
	// But reads need only one vote.
	if _, _, ok := c.Read(0); !ok {
		t.Fatal("ROWA read denied")
	}
}

func TestInvalidReassignRejected(t *testing.T) {
	c, _ := newCluster(t, graph.Ring(5), quorum.Assignment{QR: 2, QW: 4})
	if err := c.Reassign(0, quorum.Assignment{QR: 1, QW: 3}); err == nil {
		t.Fatal("invalid assignment accepted")
	}
}

func TestMessageAccounting(t *testing.T) {
	c, _ := newCluster(t, graph.Ring(5), quorum.Assignment{QR: 2, QW: 4})
	c.Write(0, 1)
	s := c.Stats()
	if s.Sent == 0 || s.Delivered == 0 {
		t.Fatalf("stats %+v", s)
	}
	if s.Sent != s.Delivered+s.Dropped {
		t.Fatalf("accounting mismatch: %+v", s)
	}
}

// TestAgreesWithReplicaOracle runs an identical random schedule of
// failures, repairs, reads, writes and reassignments against the
// message-level cluster and the component-level replica implementation;
// every grant/deny decision and every returned value must agree.
func TestAgreesWithReplicaOracle(t *testing.T) {
	topologies := map[string]*graph.Graph{
		"ring9":     graph.Ring(9),
		"path6":     graph.Path(6),
		"complete7": graph.Complete(7),
		"grid3x3":   graph.Grid(3, 3),
	}
	src := rng.New(777)
	for name, g := range topologies {
		n := g.N()
		stC := graph.NewState(g, nil)
		stR := graph.NewState(g, nil)
		cl, err := New(stC, quorum.Majority(n))
		if err != nil {
			t.Fatal(err)
		}
		ob, err := oracle.NewObject(stR, quorum.Majority(n))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 4000; step++ {
			switch src.Intn(9) {
			case 0:
				i := src.Intn(n)
				stC.FailSite(i)
				stR.FailSite(i)
			case 1:
				i := src.Intn(n)
				stC.RepairSite(i)
				stR.RepairSite(i)
			case 2:
				l := src.Intn(g.M())
				stC.FailLink(l)
				stR.FailLink(l)
			case 3:
				l := src.Intn(g.M())
				stC.RepairLink(l)
				stR.RepairLink(l)
			case 4, 5:
				x := src.Intn(n)
				val := int64(step)
				gc := cl.Write(x, val)
				gr := ob.Write(x, val)
				if gc != gr {
					t.Fatalf("%s step %d: write grant mismatch %v vs %v", name, step, gc, gr)
				}
			case 6, 7:
				x := src.Intn(n)
				vc, sc, okc := cl.Read(x)
				vr, sr, okr := ob.Read(x)
				if okc != okr {
					t.Fatalf("%s step %d: read grant mismatch %v vs %v", name, step, okc, okr)
				}
				if okc && (vc != vr || sc != sr) {
					t.Fatalf("%s step %d: read value mismatch (%d,%d) vs (%d,%d)",
						name, step, vc, sc, vr, sr)
				}
			case 8:
				x := src.Intn(n)
				qr := 1 + src.Intn(n/2)
				a := quorum.Assignment{QR: qr, QW: n - qr + 1}
				errC := cl.Reassign(x, a)
				errR := ob.Reassign(x, a)
				if (errC == nil) != (errR == nil) {
					t.Fatalf("%s step %d: reassign mismatch %v vs %v", name, step, errC, errR)
				}
			}
		}
	}
}

// TestVersionMonotonicity: node assignment versions never regress through
// any message exchange.
func TestVersionMonotonicity(t *testing.T) {
	g := graph.Complete(6)
	c, st := newCluster(t, g, quorum.Majority(6))
	src := rng.New(31)
	last := make([]int64, 6)
	for i := range last {
		last[i] = 1
	}
	for step := 0; step < 3000; step++ {
		switch src.Intn(6) {
		case 0:
			st.FailSite(src.Intn(6))
		case 1:
			st.RepairSite(src.Intn(6))
		case 2:
			st.FailLink(src.Intn(g.M()))
		case 3:
			st.RepairLink(src.Intn(g.M()))
		case 4:
			c.Write(src.Intn(6), int64(step))
		case 5:
			qr := 1 + src.Intn(3)
			_ = c.Reassign(src.Intn(6), quorum.Assignment{QR: qr, QW: 6 - qr + 1})
		}
		for i := 0; i < 6; i++ {
			if v := c.NodeVersion(i); v < last[i] {
				t.Fatalf("step %d: node %d version regressed %d → %d", step, i, last[i], v)
			} else {
				last[i] = v
			}
		}
	}
}

func TestOpKindString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" || OpReassign.String() != "reassign" {
		t.Fatal("OpKind names")
	}
	if OpKind(9).String() == "" {
		t.Fatal("unknown kind should still print")
	}
}

func BenchmarkWriteRound101(b *testing.B) {
	st := graph.NewState(graph.Complete(101), nil)
	c, err := New(st, quorum.Majority(101))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Write(i%101, int64(i))
	}
}
