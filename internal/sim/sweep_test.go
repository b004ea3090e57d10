package sim

import (
	"math"
	"reflect"
	"testing"
	"time"

	"quorumkit/internal/graph"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/topo"
)

// sweepReference is the seed implementation of the family sweep and the
// oracle Sweep is held to: MeasureAvailability once per assignment in the
// paper's family, indexed by q_r−1. It simulates the identical trajectory
// once per family member, ⌊T/2⌋ full measurement runs where Sweep costs one.
func sweepReference(g *graph.Graph, votes []int, p Params, alpha float64,
	cfg StudyConfig) ([]Measurement, error) {
	family := quorum.Enumerate(graph.NewState(g, votes).TotalVotes())
	out := make([]Measurement, len(family))
	for i, a := range family {
		var err error
		if out[i], err = MeasureAvailability(g, votes, p, a, alpha, cfg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestSweepMatchesPerAssignment is the central equivalence theorem of the
// suffix-sum sweep: for every assignment in the family, the one-simulation
// sweep must reproduce the per-assignment measurement runs bit for bit —
// same Counters-derived means, same CI, same per-assignment batch counts —
// because the trajectory never depends on the assignment and the tallied
// integers are the same.
func TestSweepMatchesPerAssignment(t *testing.T) {
	p := Params{AccessMean: 1, FailMean: 12, RepairMean: 3}
	cfg := StudyConfig{
		Warmup: 400, BatchAccesses: 6_000,
		// A reachable CI target makes different assignments converge at
		// different batch counts, exercising the per-assignment replay.
		MinBatches: 3, MaxBatches: 10, CIHalfWidth: 0.02, Seed: 11,
	}
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		alpha float64
	}{
		{"ring/mixed", graph.Ring(11), 0.6},
		{"chorded/readonly", topo.Build(11, 3), 1},
		{"complete/writeonly", graph.Complete(9), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast, err := Sweep(tc.g, nil, p, tc.alpha, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := sweepReference(tc.g, nil, p, tc.alpha, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(fast) != len(ref) {
				t.Fatalf("family sizes differ: %d vs %d", len(fast), len(ref))
			}
			sawSpread := false
			for i := range fast {
				if !reflect.DeepEqual(fast[i], ref[i]) {
					t.Fatalf("q_r=%d differs:\n fast %+v\n ref  %+v", i+1, fast[i], ref[i])
				}
				if fast[i].Batches != fast[0].Batches {
					sawSpread = true
				}
			}
			if cfg.CIHalfWidth < 1 && !sawSpread && len(fast) > 2 {
				t.Logf("note: every assignment converged at the same batch count")
			}
		})
	}
}

// TestSweepFasterThanReference is the tripwire on what the sweep is for:
// at the paper's 101 sites one shared trajectory serves 50 assignments, so
// Sweep should beat the per-assignment reference ~50×; a Sweep that quietly
// re-simulates per assignment would read ~1×. Both sides are timed in this
// process back to back, so host speed cancels out of the ratio.
func TestSweepFasterThanReference(t *testing.T) {
	g := graph.Ring(101)
	cfg := StudyConfig{
		Warmup: 500, BatchAccesses: 10_000,
		MinBatches: 2, MaxBatches: 2, CIHalfWidth: 0.005, Seed: 5,
	}
	timed := func(sweep func(*graph.Graph, []int, Params, float64, StudyConfig) ([]Measurement, error)) time.Duration {
		start := time.Now()
		if _, err := sweep(g, nil, PaperParams(), 0.75, cfg); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	fast, ref := timed(Sweep), timed(sweepReference)
	t.Logf("sweep %v, reference %v: %.0f×", fast, ref, float64(ref)/float64(fast))
	if ref < 5*fast {
		t.Fatalf("Sweep took %v against the per-assignment reference's %v: want at least 5× faster", fast, ref)
	}
}

// TestSweepDeterminism: same configuration, same result, bit for bit.
func TestSweepDeterminism(t *testing.T) {
	g := graph.Ring(9)
	p := Params{AccessMean: 1, FailMean: 10, RepairMean: 2}
	cfg := StudyConfig{Warmup: 200, BatchAccesses: 3000, MinBatches: 2, MaxBatches: 4, CIHalfWidth: 0.01, Seed: 3}
	a, err := Sweep(g, nil, p, 0.7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(g, nil, p, 0.7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sweep is not deterministic")
	}
}

// TestSweepObsTopologyFlow: a registry attached to a sweep sees the shared
// trajectory's topology events exactly once per batch, and no access
// grant/deny counts (grant-ness has no single value during a family sweep).
func TestSweepObsTopologyFlow(t *testing.T) {
	g := graph.Ring(9)
	p := Params{AccessMean: 1, FailMean: 6, RepairMean: 2}
	cfg := StudyConfig{Warmup: 100, BatchAccesses: 4000, MinBatches: 2, MaxBatches: 2, CIHalfWidth: 1, Seed: 5}

	bare, err := Sweep(g, nil, p, 0.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	cfg.Obs = reg
	instrumented, err := Sweep(g, nil, p, 0.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, instrumented) {
		t.Fatal("observation perturbed the sweep")
	}
	if reg.Counter(obs.CSimSiteFail) == 0 {
		t.Fatal("no topology events observed")
	}
	if g, d := reg.Counter(obs.CSimAccessGrant), reg.Counter(obs.CSimAccessDeny); g != 0 || d != 0 {
		t.Fatalf("family sweep recorded access decisions (%d grants, %d denies)", g, d)
	}
}

// TestSweepValidation mirrors the study validation paths.
func TestSweepValidation(t *testing.T) {
	g := graph.Ring(5)
	if _, err := Sweep(g, nil, PaperParams(), 0.5, StudyConfig{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSweepCurveShape(t *testing.T) {
	// A direct-measurement sweep over the full family on a small network:
	// pure-write availability must be non-decreasing in q_r and pure-read
	// non-increasing.
	g := graph.Ring(11)
	p := Params{AccessMean: 1, FailMean: 16, RepairMean: 2}
	cfg := StudyConfig{
		Warmup: 500, BatchAccesses: 15_000,
		MinBatches: 3, MaxBatches: 3, CIHalfWidth: 1, Seed: 5,
	}
	wr, err := Sweep(g, nil, p, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(wr) != 5 {
		t.Fatalf("family size %d", len(wr))
	}
	for i := 1; i < len(wr); i++ {
		if wr[i].Overall.Mean < wr[i-1].Overall.Mean-0.03 {
			t.Fatalf("write availability decreased: %g → %g",
				wr[i-1].Overall.Mean, wr[i].Overall.Mean)
		}
	}
	rd, err := Sweep(g, nil, p, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rd); i++ {
		if rd[i].Overall.Mean > rd[i-1].Overall.Mean+0.03 {
			t.Fatalf("read availability increased: %g → %g",
				rd[i-1].Overall.Mean, rd[i].Overall.Mean)
		}
	}
	// Endpoint identity: pure reads at q_r=1 ≈ site reliability.
	rel := p.Reliability()
	if math.Abs(rd[0].Overall.Mean-rel) > 0.03 {
		t.Fatalf("A(1,1) = %g, want ≈ %g", rd[0].Overall.Mean, rel)
	}
}
