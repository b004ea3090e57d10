package replica

import (
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
)

func newObj(t *testing.T, g *graph.Graph, a quorum.Assignment) (*Object, *graph.State) {
	t.Helper()
	st := graph.NewState(g, nil)
	o, err := NewObject(st, a)
	if err != nil {
		t.Fatal(err)
	}
	return o, st
}

func TestReadWriteAllUp(t *testing.T) {
	o, _ := newObj(t, graph.Ring(5), quorum.Assignment{QR: 2, QW: 4})
	if !o.Write(0, 42) {
		t.Fatal("write denied in fully-up network")
	}
	v, stamp, ok := o.Read(3)
	if !ok || v != 42 || stamp != o.LatestStamp() {
		t.Fatalf("read = (%d,%d,%v)", v, stamp, ok)
	}
}

func TestDownSiteDenied(t *testing.T) {
	o, st := newObj(t, graph.Ring(5), quorum.Assignment{QR: 2, QW: 4})
	st.FailSite(2)
	if _, _, ok := o.Read(2); ok {
		t.Fatal("read at down site granted")
	}
	if o.Write(2, 1) {
		t.Fatal("write at down site granted")
	}
	if err := o.Reassign(2, quorum.Assignment{QR: 1, QW: 5}); err == nil {
		t.Fatal("reassign at down site granted")
	}
	if _, _, ok := o.EffectiveAssignment(2); ok {
		t.Fatal("effective assignment at down site")
	}
}

func TestQuorumDenial(t *testing.T) {
	// Path 0-1-2-3-4, T=5, QR=2, QW=4. Cut between 1 and 2:
	// component {0,1} has 2 votes (reads only), {2,3,4} has 3 (neither write).
	g := graph.Path(5)
	o, st := newObj(t, g, quorum.Assignment{QR: 2, QW: 4})
	if !o.Write(0, 7) {
		t.Fatal("initial write denied")
	}
	st.FailLink(g.EdgeIndex(1, 2))
	if v, _, ok := o.Read(0); !ok || v != 7 {
		t.Fatalf("read in 2-vote component = (%d, %v)", v, ok)
	}
	if o.Write(0, 8) {
		t.Fatal("write granted with 2 of 4 votes")
	}
	if o.Write(4, 8) {
		t.Fatal("write granted with 3 of 4 votes")
	}
	if v, _, ok := o.Read(4); !ok || v != 7 {
		t.Fatalf("read in 3-vote component = (%d, %v)", v, ok)
	}
}

func TestStaleCopyRefreshOnMerge(t *testing.T) {
	// Site 4 is down during a write; on recovery (and merge) its copy must
	// be refreshed so later reads at it are current.
	g := graph.Ring(5)
	o, st := newObj(t, g, quorum.Assignment{QR: 2, QW: 4})
	st.FailSite(4)
	if !o.Write(0, 99) {
		t.Fatal("write with 4 of 5 votes denied")
	}
	if o.Copy(4).Stamp != 0 {
		t.Fatal("down copy should be stale")
	}
	st.RepairSite(4)
	v, _, ok := o.Read(4)
	if !ok || v != 99 {
		t.Fatalf("read at recovered site = (%d,%v)", v, ok)
	}
	if o.Copy(4).Stamp != o.LatestStamp() {
		t.Fatal("recovered copy not refreshed")
	}
}

func TestReassignRequiresWriteQuorum(t *testing.T) {
	g := graph.Path(5)
	o, st := newObj(t, g, quorum.Assignment{QR: 2, QW: 4})
	st.FailLink(g.EdgeIndex(3, 4)) // component {0..3} has 4 votes
	if err := o.Reassign(0, quorum.Assignment{QR: 1, QW: 5}); err != nil {
		t.Fatalf("reassign in write-quorum component: %v", err)
	}
	a, ver, ok := o.EffectiveAssignment(0)
	if !ok || a.QR != 1 || ver != 2 {
		t.Fatalf("effective = %v v%d ok=%v", a, ver, ok)
	}
	// Site 4 still holds version 1.
	if o.Copy(4).Version != 1 {
		t.Fatalf("isolated copy version %d", o.Copy(4).Version)
	}
	// A second reassign from a component lacking the new write quorum (5)
	// must fail.
	if err := o.Reassign(0, quorum.Assignment{QR: 2, QW: 4}); err == nil {
		t.Fatal("reassign granted without new write quorum")
	}
}

func TestReassignValidation(t *testing.T) {
	o, _ := newObj(t, graph.Ring(5), quorum.Assignment{QR: 2, QW: 4})
	if err := o.Reassign(0, quorum.Assignment{QR: 1, QW: 4}); err == nil {
		t.Fatal("invalid assignment accepted")
	}
}

func TestVersionPropagatesOnMerge(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3, T=4, QR=2, QW=3
	o, st := newObj(t, g, quorum.Assignment{QR: 2, QW: 3})
	st.FailLink(g.EdgeIndex(2, 3)) // {0,1,2} | {3}
	if err := o.Reassign(1, quorum.Assignment{QR: 1, QW: 4}); err != nil {
		t.Fatal(err)
	}
	if o.Copy(3).Version != 1 {
		t.Fatal("site 3 should still be on version 1")
	}
	st.RepairLink(g.EdgeIndex(2, 3))
	// Any operation in the merged component propagates the new assignment.
	a, ver, _ := o.EffectiveAssignment(3)
	if ver != 2 || a.QW != 4 {
		t.Fatalf("after merge: %v v%d", a, ver)
	}
	if o.Copy(3).Version != 2 {
		t.Fatalf("site 3 version %d after merge", o.Copy(3).Version)
	}
}

// TestExtremeReassignmentSafety reproduces the hazard that motivates the
// value-refresh rule: write under (2,4), reassign to ROWA (1,5), isolate a
// site that was down during the write — its read must still be current or
// denied, never stale.
func TestExtremeReassignmentSafety(t *testing.T) {
	g := graph.Ring(5)
	o, st := newObj(t, g, quorum.Assignment{QR: 2, QW: 4})
	st.FailSite(4)
	if !o.Write(0, 55) {
		t.Fatal("write denied")
	}
	if err := o.Reassign(0, quorum.Assignment{QR: 1, QW: 5}); err != nil {
		t.Fatal(err)
	}
	// Site 4 recovers and immediately becomes isolated.
	st.RepairSite(4)
	_, eff := o.sync(4) // merge happens (ring reconnects site 4)
	_ = eff
	st.FailLink(g.EdgeIndex(3, 4))
	st.FailLink(g.EdgeIndex(4, 0))
	v, stamp, ok := o.Read(4)
	if ok && (v != 55 || stamp != o.LatestStamp()) {
		t.Fatalf("stale read: value=%d stamp=%d latest=%d", v, stamp, o.LatestStamp())
	}
}

// TestRandomizedProtocolSafety drives random failures, repairs, reads,
// writes, and reassignments, asserting the protocol's safety invariants at
// every step:
//
//  1. every granted read returns the latest committed write,
//  2. at most one component is write-capable,
//  3. assignment versions never decrease at any copy.
func TestRandomizedProtocolSafety(t *testing.T) {
	topologies := map[string]*graph.Graph{
		"ring9":     graph.Ring(9),
		"path6":     graph.Path(6),
		"complete7": graph.Complete(7),
		"star8":     graph.Star(8),
	}
	src := rng.New(20240)
	for name, g := range topologies {
		n := g.N()
		st := graph.NewState(g, nil)
		o, err := NewObject(st, quorum.Majority(n))
		if err != nil {
			t.Fatal(err)
		}
		lastVersion := make([]int64, n)
		for i := range lastVersion {
			lastVersion[i] = 1
		}
		var expectValue int64
		for step := 0; step < 6000; step++ {
			switch src.Intn(10) {
			case 0:
				st.FailSite(src.Intn(n))
			case 1:
				st.RepairSite(src.Intn(n))
			case 2:
				st.FailLink(src.Intn(g.M()))
			case 3:
				st.RepairLink(src.Intn(g.M()))
			case 4, 5: // write
				val := int64(step)
				if o.Write(src.Intn(n), val) {
					expectValue = val
				}
			case 6, 7: // read
				v, stamp, ok := o.Read(src.Intn(n))
				if ok {
					if stamp != o.LatestStamp() {
						t.Fatalf("%s step %d: read stamp %d, latest %d", name, step, stamp, o.LatestStamp())
					}
					if o.LatestStamp() > 0 && v != expectValue {
						t.Fatalf("%s step %d: read value %d, expect %d", name, step, v, expectValue)
					}
				}
			case 8: // reassign to a random valid member of the family
				qr := 1 + src.Intn(n/2)
				a := quorum.Assignment{QR: qr, QW: n - qr + 1}
				_ = o.Reassign(src.Intn(n), a) // may legitimately fail
			case 9: // reassign to ROWA or majority, the paper's extremes
				var a quorum.Assignment
				if src.Bernoulli(0.5) {
					a = quorum.ReadOneWriteAll(n)
				} else {
					a = quorum.Majority(n)
				}
				_ = o.Reassign(src.Intn(n), a)
			}
			if wc := o.WriteCapableComponents(); wc > 1 {
				t.Fatalf("%s step %d: %d write-capable components", name, step, wc)
			}
			for i := 0; i < n; i++ {
				if v := o.Copy(i).Version; v < lastVersion[i] {
					t.Fatalf("%s step %d: site %d version regressed %d → %d",
						name, step, i, lastVersion[i], v)
				} else {
					lastVersion[i] = v
				}
			}
		}
	}
}

func TestWriteCapableComponents(t *testing.T) {
	g := graph.Path(5)
	o, st := newObj(t, g, quorum.Assignment{QR: 2, QW: 4})
	if o.WriteCapableComponents() != 1 {
		t.Fatal("fully-up network should have one write-capable component")
	}
	st.FailLink(g.EdgeIndex(1, 2))
	if o.WriteCapableComponents() != 0 {
		t.Fatal("no component holds 4 votes after the cut")
	}
	for _, x := range []int{0, 4} {
		if _, _, ok := o.Read(x); !ok {
			t.Fatalf("fragment of site %d holds a read quorum but was denied", x)
		}
	}
}

func TestNewObjectValidates(t *testing.T) {
	st := graph.NewState(graph.Ring(5), nil)
	if _, err := NewObject(st, quorum.Assignment{QR: 1, QW: 3}); err == nil {
		t.Fatal("invalid initial assignment accepted")
	}
}
