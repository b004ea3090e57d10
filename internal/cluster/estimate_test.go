package cluster

import (
	"math"
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
)

func TestObservationsRecordedDuringRounds(t *testing.T) {
	g := graph.Ring(5)
	st := graph.NewState(g, nil)
	c, err := New(st, quorum.Majority(5))
	if err != nil {
		t.Fatal(err)
	}
	// All-up rounds: every participant should record 5 votes.
	c.Write(0, 1)
	c.Read(2)
	for i := 0; i < 5; i++ {
		f := c.LocalDensity(i)
		if f == nil {
			t.Fatalf("node %d recorded nothing", i)
		}
		if math.Abs(f[5]-1) > 1e-12 {
			t.Fatalf("node %d density %v, want all mass at 5", i, f)
		}
	}
	// Partition and run rounds on one side: only that side records the
	// smaller total.
	st.FailSite(4)
	st.FailLink(g.EdgeIndex(0, 1)) // component {1,2,3} and {0}
	c.Read(2)
	c.Read(0) // the isolated node runs its own (denied) round
	f := c.LocalDensity(2)
	if f[3] == 0 {
		t.Fatalf("node 2 did not record the 3-vote component: %v", f)
	}
	if f0 := c.LocalDensity(0); f0[1] == 0 {
		t.Fatalf("isolated node 0 should have recorded its singleton round: %v", f0)
	}
}

func TestGossipAssemblesEstimator(t *testing.T) {
	g := graph.Ring(5)
	st := graph.NewState(g, nil)
	c, err := New(st, quorum.Majority(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		c.Read(i % 5)
	}
	est, err := c.GossipEstimates(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if est.Weight(i) == 0 {
			t.Fatalf("gossiped estimator missing site %d", i)
		}
	}
	// Down coordinator cannot gossip.
	st.FailSite(3)
	if _, err := c.GossipEstimates(3); err == nil {
		t.Fatal("down node gossiped")
	}
	// Unreachable rows are absent, reachable ones still present.
	st.RepairSite(3)
	st.FailSite(1)
	est, err = c.GossipEstimates(0)
	if err != nil {
		t.Fatal(err)
	}
	if est.Weight(1) != 0 {
		t.Fatal("down site's row should be absent")
	}
}

func TestOptimizeLocalMatchesCentral(t *testing.T) {
	// Drive rounds under failures, then compare node 0's distributed
	// optimization against a centrally assembled model from the same
	// histograms.
	g := graph.Complete(7)
	st := graph.NewState(g, nil)
	c, err := New(st, quorum.Majority(7))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(12)
	for step := 0; step < 3000; step++ {
		switch src.Intn(6) {
		case 0:
			st.FailSite(src.Intn(7))
		case 1, 2:
			st.RepairSite(src.Intn(7))
		case 3:
			st.FailLink(src.Intn(g.M()))
		default:
			st.RepairLink(src.Intn(g.M()))
		}
		c.Read(src.Intn(7))
	}
	st.SetAll(true)
	res, err := c.OptimizeLocal(0, 0.75, 0)
	if err != nil {
		t.Fatal(err)
	}
	est, err := c.GossipEstimates(0)
	if err != nil {
		t.Fatal(err)
	}
	model, err := est.Model(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := model.Optimize(0.75)
	if res.Assignment != want.Assignment {
		t.Fatalf("distributed %v vs central %v", res.Assignment, want.Assignment)
	}
	// Constrained variant respects the floor.
	con, err := c.OptimizeLocal(0, 0.75, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if model.Availability(0, con.Assignment.QR) < 0.2 {
		t.Fatal("write floor violated")
	}
}

// TestReassignOptimalEndToEnd: the full distributed §4.3 loop — observe
// during rounds, gossip, optimize, QR install — improves on the majority
// incumbent for a read-heavy workload on a fragile topology.
func TestReassignOptimalEndToEnd(t *testing.T) {
	g := graph.Ring(9)
	st := graph.NewState(g, nil)
	c, err := New(st, quorum.Majority(9))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(23)
	// Fragmented network: rounds mostly observe small components.
	for step := 0; step < 2000; step++ {
		if src.Intn(8) == 0 {
			st.FailLink(src.Intn(9))
		}
		if src.Intn(4) == 0 {
			st.RepairLink(src.Intn(9))
		}
		c.Read(src.Intn(9))
	}
	st.SetAll(true) // heal so the write quorum is available for the install
	changed, err := c.ReassignOptimal(0, 0.95, 0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("distributed reassignment should fire on a read-heavy fragmented history")
	}
	a, ver, _ := c.EffectiveAssignment(0)
	if a.QR >= 4 {
		t.Fatalf("expected a small read quorum, got %v", a)
	}
	if ver != 2 {
		t.Fatalf("version %d", ver)
	}
	// Second call: already optimal → no change.
	changed, err = c.ReassignOptimal(0, 0.95, 0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("reassigned twice for the same optimum")
	}
}

func TestEstimationSurvivesWireMode(t *testing.T) {
	// The histogram gossip must round-trip the binary codec.
	g := graph.Ring(5)
	st := graph.NewState(g, nil)
	c, err := New(st, quorum.Majority(5))
	if err != nil {
		t.Fatal(err)
	}
	c.SetWireMode(true)
	for i := 0; i < 10; i++ {
		c.Read(i % 5)
	}
	est, err := c.GossipEstimates(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if est.Weight(i) == 0 {
			t.Fatalf("wire-mode gossip lost site %d", i)
		}
	}
}
