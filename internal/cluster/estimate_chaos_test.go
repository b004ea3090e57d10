package cluster

import (
	"testing"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

// Fault-injection coverage for the distributed estimator pipeline
// (GossipEstimates) and the full reassignment loop (ReassignOptimal):
// the on-line §4.2–4.3 machinery must stay safe — no panics, no corrupted
// histograms, no version regressions — when the transport drops or
// duplicates its messages.

// newEstimatorCluster builds a complete(7) cluster with identical seeded
// observations at every site: mostly small components, sometimes full.
func newEstimatorCluster(t *testing.T) *Cluster {
	t.Helper()
	g := graph.Complete(7)
	c, err := New(graph.NewState(g, nil), quorum.Majority(7))
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 7; x++ {
		for i := 0; i < 60; i++ {
			c.nodes[x].observe(2)
		}
		for i := 0; i < 40; i++ {
			c.nodes[x].observe(7)
		}
	}
	return c
}

// TestGossipEstimatesDuplicatesHarmless: a transport that duplicates every
// message must not change the assembled estimator — duplicated histogram
// rows are counted once.
func TestGossipEstimatesDuplicatesHarmless(t *testing.T) {
	clean := newEstimatorCluster(t)
	dup := newEstimatorCluster(t)
	dup.EnableChaos(faults.NewPlan(3, faults.Mix{Name: "dup", Duplicate: 1.0}),
		DefaultRetryPolicy())

	for x := 0; x < 7; x++ {
		dup.chaos.op++ // advance the fault schedule between rounds
		eClean, err := clean.GossipEstimates(x)
		if err != nil {
			t.Fatal(err)
		}
		eDup, err := dup.GossipEstimates(x)
		if err != nil {
			t.Fatal(err)
		}
		for site := 0; site < 7; site++ {
			if eClean.Weight(site) != eDup.Weight(site) {
				t.Fatalf("x=%d site %d: weight %g under duplication vs %g clean",
					x, site, eDup.Weight(site), eClean.Weight(site))
			}
			dc, dd := eClean.Density(site), eDup.Density(site)
			for v := range dc {
				if dc[v] != dd[v] {
					t.Fatalf("x=%d site %d bin %d: density %g vs %g", x, site, v, dd[v], dc[v])
				}
			}
		}
	}
}

// TestGossipEstimatesUnderDrops: dropped rows shrink the estimate but can
// never corrupt it — the coordinator's own row survives, absent rows
// contribute at most the clean weight, and no call errors or panics on an
// up coordinator.
func TestGossipEstimatesUnderDrops(t *testing.T) {
	clean := newEstimatorCluster(t)
	for _, p := range []float64{0.2, 0.5, 0.9} {
		c := newEstimatorCluster(t)
		c.EnableChaos(faults.NewPlan(11, faults.Mix{Name: "drop", Drop: p}),
			DefaultRetryPolicy())
		for x := 0; x < 7; x++ {
			c.chaos.op++
			est, err := c.GossipEstimates(x)
			if err != nil {
				t.Fatalf("drop=%g x=%d: %v", p, x, err)
			}
			ref, _ := clean.GossipEstimates(x)
			if est.Weight(x) != ref.Weight(x) {
				t.Fatalf("drop=%g x=%d: own row weight %g, want %g",
					p, x, est.Weight(x), ref.Weight(x))
			}
			for site := 0; site < 7; site++ {
				if est.Weight(site) > ref.Weight(site) {
					t.Fatalf("drop=%g x=%d site %d: weight inflated %g > %g",
						p, x, site, est.Weight(site), ref.Weight(site))
				}
			}
		}
	}
	// A down coordinator reports a typed error instead of gossiping.
	c := newEstimatorCluster(t)
	c.FailSite(2)
	if _, err := c.GossipEstimates(2); err == nil {
		t.Fatal("down coordinator must error")
	}
}

// TestReassignOptimalUnderChaos: the full gossip→optimize→install loop
// under drops and duplicates must keep assignment versions monotone at
// every node and report failures as errors or no-ops, never panics.
func TestReassignOptimalUnderChaos(t *testing.T) {
	for _, mix := range []faults.Mix{
		{Name: "drop", Drop: 0.35},
		{Name: "dup", Duplicate: 0.8},
		{Name: "both", Drop: 0.25, Duplicate: 0.5},
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			c := newEstimatorCluster(t)
			c.EnableChaos(faults.NewPlan(seed, mix), DefaultRetryPolicy())
			last := make([]int64, 7)
			for i := range last {
				last[i] = c.NodeVersion(i)
			}
			installs := 0
			for round := 0; round < 25; round++ {
				c.chaos.op++
				x := round % 7
				changed, err := c.ReassignOptimal(x, 0.9, 0, 0.01)
				if err != nil {
					t.Fatalf("mix=%s seed=%d round %d: unexpected error: %v",
						mix.Name, seed, round, err)
				}
				if changed {
					installs++
				}
				for i := 0; i < 7; i++ {
					if v := c.NodeVersion(i); v < last[i] {
						t.Fatalf("mix=%s seed=%d round %d: node %d version regressed %d -> %d",
							mix.Name, seed, round, i, last[i], v)
					} else {
						last[i] = v
					}
				}
			}
			// The optimizer wants q_r=1 for these densities at α=0.9, so at
			// least one attempt must eventually install it even under faults.
			if installs == 0 {
				t.Fatalf("mix=%s seed=%d: no reassignment ever installed", mix.Name, seed)
			}
		}
	}
}

// TestReassignOptimalDropsCannotForgeQuorum: with every message dropped,
// the loop must never install anything — the coordinator alone does not
// hold the old write quorum.
func TestReassignOptimalDropsCannotForgeQuorum(t *testing.T) {
	c := newEstimatorCluster(t)
	c.EnableChaos(faults.NewPlan(9, faults.Mix{Name: "all-drop", Drop: 1.0}),
		DefaultRetryPolicy())
	for round := 0; round < 10; round++ {
		c.chaos.op++
		changed, err := c.ReassignOptimal(0, 0.9, 0, 0.01)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if changed {
			t.Fatalf("round %d: installed an assignment without a quorum", round)
		}
	}
	for i := 0; i < 7; i++ {
		if v := c.NodeVersion(i); v != 1 {
			t.Fatalf("node %d version %d, want untouched 1", i, v)
		}
	}
}
