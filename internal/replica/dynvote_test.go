package replica

import (
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
)

func TestDynVoteAllUp(t *testing.T) {
	st := graph.NewState(graph.Ring(5), nil)
	d := NewDynVote(st)
	v, ok := d.Access(0, 42)
	if !ok || v != 2 {
		t.Fatalf("access (%d, %v)", v, ok)
	}
	// A granted access reads the freshest reachable copy, which is current.
	_, f, ok := d.canAccess(3)
	if !ok {
		t.Fatal("read denied")
	}
	if d.vn[f] != d.last || d.val[f] != 42 {
		t.Fatalf("read: version %d of %d, value %d", d.vn[f], d.last, d.val[f])
	}
}

func TestDynVoteShrinkingMajority(t *testing.T) {
	// The defining behaviour: after an update in a 3-of-5 partition, a
	// majority of THAT update set (2 of 3) suffices for the next access,
	// even though it is a minority of all sites. Static majority would
	// deny it.
	g := graph.Path(5)
	st := graph.NewState(g, nil)
	d := NewDynVote(st)
	st.FailLink(g.EdgeIndex(2, 3)) // {0,1,2} | {3,4}
	if _, ok := d.Access(0, 1); !ok {
		t.Fatal("3-of-5 partition should access (majority of 5)")
	}
	if _, ok := d.Access(4, 2); ok {
		t.Fatal("2-of-5 stale partition must be denied")
	}
	// Now shrink further: {0,1} split from {2}.
	st.FailLink(g.EdgeIndex(1, 2))
	if _, ok := d.Access(0, 3); !ok {
		t.Fatal("2 of the 3-site update set should access")
	}
	if _, ok := d.Access(2, 4); ok {
		t.Fatal("1 of 3 must be denied")
	}
	// And further: {0} alone is half of the 2-site update set — the linear
	// tie-breaker designates the smallest member (0), so {0} proceeds.
	st.FailLink(g.EdgeIndex(0, 1))
	if _, ok := d.Access(0, 5); !ok {
		t.Fatal("tie-breaker half containing site 0 should access")
	}
	if _, ok := d.Access(1, 6); ok {
		t.Fatal("the other half must be denied")
	}
}

func TestDynVoteRecoveryCatchUp(t *testing.T) {
	g := graph.Path(4)
	st := graph.NewState(g, nil)
	d := NewDynVote(st)
	st.FailSite(3)
	if _, ok := d.Access(0, 9); !ok {
		t.Fatal("3-of-4 should access")
	}
	st.RepairSite(3)
	// Site 3 is stale but the partition contains the full update set.
	_, f, ok := d.canAccess(3)
	if !ok {
		t.Fatal("recovered read denied")
	}
	if d.vn[f] != d.last || d.val[f] != 9 {
		t.Fatalf("recovered read: version %d of %d, value %d", d.vn[f], d.last, d.val[f])
	}
}

// TestDynVoteNeverForks drives random schedules and asserts the protocol's
// core guarantee: every granted access sees the globally-latest committed
// version (no two divergent lineages).
func TestDynVoteNeverForks(t *testing.T) {
	topologies := map[string]*graph.Graph{
		"ring9":     graph.Ring(9),
		"complete7": graph.Complete(7),
		"path6":     graph.Path(6),
		"grid3x3":   graph.Grid(3, 3),
	}
	src := rng.New(616)
	for name, g := range topologies {
		st := graph.NewState(g, nil)
		d := NewDynVote(st)
		n := g.N()
		for step := 0; step < 6000; step++ {
			switch src.Intn(8) {
			case 0:
				st.FailSite(src.Intn(n))
			case 1:
				st.RepairSite(src.Intn(n))
			case 2:
				st.FailLink(src.Intn(g.M()))
			case 3:
				st.RepairLink(src.Intn(g.M()))
			case 4, 5:
				d.Access(src.Intn(n), int64(step))
			case 6, 7:
				if _, f, ok := d.canAccess(src.Intn(n)); ok && d.vn[f] != d.last {
					t.Fatalf("%s step %d: granted access saw a stale version", name, step)
				}
			}
		}
	}
}

// TestDynVoteBeatsStaticMajorityUnderPartitions measures the classic
// availability advantage: across a random schedule, dynamic voting grants
// at least as many accesses as static majority consensus (it can keep
// shrinking with the surviving partition).
func TestDynVoteBeatsStaticMajorityUnderPartitions(t *testing.T) {
	g := graph.Ring(9)
	st := graph.NewState(g, nil)
	d := NewDynVote(st)
	obj, err := NewObject(st, quorum.Majority(9))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(4321)
	dynGranted, statGranted := 0, 0
	for step := 0; step < 20000; step++ {
		switch src.Intn(6) {
		case 0:
			if src.Bernoulli(0.5) {
				st.FailSite(src.Intn(9))
			} else {
				st.FailLink(src.Intn(9))
			}
		case 1, 2:
			if src.Bernoulli(0.5) {
				st.RepairSite(src.Intn(9))
			} else {
				st.RepairLink(src.Intn(9))
			}
		default:
			x := src.Intn(9)
			if _, ok := d.Access(x, int64(step)); ok {
				dynGranted++
			}
			if obj.Write(x, int64(step)) {
				statGranted++
			}
		}
	}
	if dynGranted <= statGranted {
		t.Fatalf("dynamic voting granted %d, static majority %d", dynGranted, statGranted)
	}
}
