package sim

import (
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
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

// The grid and horizons of one bench/paper.go cell, so the in-package
// benchmark and the allocation budget read the cell the gated paper-study
// workload times.
var (
	cellChords = []int{0, 1, 2, 4, 16, 256}
	cellAlphas = []float64{0.1, 0.25, 0.5, 0.75, 0.9}
)

const (
	cellCollectAccesses = 3000
	cellMeasureBatches  = 5
	cellMeasureAccesses = 600
)

// paperCell runs one cell of the paper's §5 study exactly as bench/paper.go
// does: time-weighted Collect, the Figure-1 optimizer, then a direct
// five-batch measurement of the chosen assignment.
func paperCell(tb testing.TB, g *graph.Graph, alpha float64, seed uint64) Measurement {
	p := PaperParams()
	m, _, err := Collect(g, nil, p, CollectConfig{Mode: TimeWeighted,
		Accesses: cellCollectAccesses, Warmup: cellCollectAccesses / 10, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	res := m.Optimize(alpha)
	meas, err := MeasureAvailability(g, nil, p, res.Assignment, alpha, StudyConfig{
		Warmup: cellMeasureAccesses / 10, BatchAccesses: cellMeasureAccesses,
		MinBatches: cellMeasureBatches, MaxBatches: cellMeasureBatches, Seed: seed ^ 1})
	if err != nil {
		tb.Fatal(err)
	}
	return meas
}

var cellSink Measurement

// BenchmarkPaperCell is the paper-study workload's operation as an
// in-package benchmark: the chords × α grid in bench/'s seeded order, one
// rng.SubSeed per cell. `make bench-sim` runs it; the gated number is
// `go run ./bench --workload paper-study`.
func BenchmarkPaperCell(b *testing.B) {
	const seed = 1
	graphs := make([]*graph.Graph, len(cellChords))
	for i, c := range cellChords {
		graphs[i] = topo.Paper(c)
	}
	perm := rng.New(seed ^ 0x9a9e).Perm(len(cellChords) * len(cellAlphas))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell := perm[i%len(perm)]
		cellSink = paperCell(b, graphs[cell/len(cellAlphas)], cellAlphas[cell%len(cellAlphas)],
			rng.SubSeed(seed, uint64(i)))
	}
}

// TestCellAllocBudget bounds the mallocs of one paper-study cell at 101
// sites. The estimator's histograms and the model's densities each come
// from one slab and the measurement reuses one simulator, so what is left
// is two simulators' fixed state and the model's few vectors — 44 objects
// (353 before the slabs). The bound leaves under 25 % headroom so a
// per-site allocation creeping back (+101) cannot hide in it.
func TestCellAllocBudget(t *testing.T) {
	const budget = 54
	for _, chords := range []int{0, 256} {
		g := topo.Paper(chords)
		if n := testing.AllocsPerRun(5, func() {
			cellSink = paperCell(t, g, 0.75, 7)
		}); n > budget {
			t.Errorf("topology %d: one Collect + MeasureAvailability cell allocates %.0f objects, budget %d", chords, n, budget)
		} else {
			t.Logf("topology %d: %.0f objects per cell", chords, n)
		}
	}
}
