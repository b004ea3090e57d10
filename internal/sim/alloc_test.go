package sim

import (
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/topo"
)

// TestSteadyStateAccessZeroAlloc: after construction and warm-up, driving
// accesses through the simulator must not touch the heap — the event heap
// is pre-sized, RNG scratch is embedded, and observability counters are
// batched into plain fields. A hard test, at a size fast enough for every
// `go test` run; bench/'s sim.access_ns times the same path from outside.
func TestSteadyStateAccessZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ring101", graph.Ring(101)},
		{"chorded101x4", topo.Build(101, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.g, nil, Params{AccessMean: 1, FailMean: 10, RepairMean: 2}, 7)
			T := s.State().TotalVotes()
			s.SetProtocol(StaticProtocol{Assignment: quorum.Assignment{QR: T/2 + 1, QW: T/2 + 1}}, 0.5)
			s.RunAccesses(2_000) // warm-up: reach steady state
			if n := testing.AllocsPerRun(10, func() {
				s.RunAccesses(500)
			}); n != 0 {
				t.Fatalf("steady-state RunAccesses allocates %.1f objects per run, want 0", n)
			}
		})
	}
}

// TestSteadyStateZeroAllocWithObs: batched counters keep the hot path
// allocation-free even with a metrics registry attached (tracing off).
func TestSteadyStateZeroAllocWithObs(t *testing.T) {
	g := graph.Ring(51)
	s := New(g, nil, Params{AccessMean: 1, FailMean: 10, RepairMean: 2}, 7)
	s.AttachObs(obs.New())
	T := s.State().TotalVotes()
	s.SetProtocol(StaticProtocol{Assignment: quorum.Assignment{QR: T/2 + 1, QW: T/2 + 1}}, 0.5)
	s.RunAccesses(2_000)
	if n := testing.AllocsPerRun(10, func() {
		s.RunAccesses(500)
	}); n != 0 {
		t.Fatalf("steady-state RunAccesses with obs allocates %.1f objects per run, want 0", n)
	}
}

// TestFamilyTallyZeroAlloc: the sweep's tally mode shares the hot path.
func TestFamilyTallyZeroAlloc(t *testing.T) {
	g := graph.Ring(101)
	s := New(g, nil, Params{AccessMean: 1, FailMean: 10, RepairMean: 2}, 7)
	tally := newFamilyTally(s.State().TotalVotes())
	s.setFamilyTally(tally, 0.5)
	s.RunAccesses(2_000)
	if n := testing.AllocsPerRun(10, func() {
		s.RunAccesses(500)
	}); n != 0 {
		t.Fatalf("steady-state tally RunAccesses allocates %.1f objects per run, want 0", n)
	}
}
