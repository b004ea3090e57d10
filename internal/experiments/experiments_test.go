package experiments

import (
	"math"
	"testing"

	"quorumkit/internal/quorum"
	"quorumkit/internal/sim"
	"quorumkit/internal/topo"
)

// quickCollect is a small horizon for unit tests; the figure-quality runs
// are `quorumsim suite paper`'s.
func quickCollect(seed uint64) sim.CollectConfig {
	return sim.CollectConfig{
		Mode:     sim.TimeWeighted,
		Accesses: 60_000,
		Warmup:   5_000,
		Seed:     seed,
	}
}

func TestRunFigureRing(t *testing.T) {
	spec := Figures[0] // the ring
	res, err := RunFigure(spec, sim.PaperParams(), quickCollect(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != len(sim.PaperAlphas) {
		t.Fatalf("%d series", len(res.Series))
	}
	if got := len(res.Series[0].Avail); got != 50 {
		t.Fatalf("curve has %d points", got)
	}
	checks := CheckEndpoints(res)
	// §5.3: A(α, 1) = 0.96·α.
	for i, alpha := range sim.PaperAlphas {
		want := 0.96 * alpha
		if math.Abs(checks.AtQR1[i]-want) > 0.02 {
			t.Fatalf("A(%g, 1) = %g, want %g", alpha, checks.AtQR1[i], want)
		}
	}
	// §5.3: all curves converge at q_r = 50.
	if checks.Spread > 0.02 {
		t.Fatalf("curves do not converge at q_r=50: spread %g", checks.Spread)
	}
	if checks.Curves != 5 {
		t.Fatalf("curves %d", checks.Curves)
	}
}

func TestRingCurvesOrderedByAlpha(t *testing.T) {
	// On a sparse topology reads are easier than writes, so at small q_r
	// availability must increase with α.
	spec := Figures[0] // the ring
	res, err := RunFigure(spec, sim.PaperParams(), quickCollect(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Series); i++ {
		if res.Series[i].Avail[0] < res.Series[i-1].Avail[0]-1e-9 {
			t.Fatalf("A(α,1) not increasing in α: %g then %g",
				res.Series[i-1].Avail[0], res.Series[i].Avail[0])
		}
	}
}

func TestWriteConstraintDemo(t *testing.T) {
	// §5.4 runs on the Figure 4 topology (2 chords) at α = 75%: the
	// unconstrained optimum is q_r = 1 with availability ≈ 0.72 = 0.96·0.75,
	// and a 20% write floor forces q_r up with availability near 50%.
	spec := Figures[2] // topology 2
	res, err := RunFigure(spec, sim.PaperParams(), quickCollect(4))
	if err != nil {
		t.Fatal(err)
	}
	row, err := WriteConstraint(res, 0.75, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if row.Unconstrained.Assignment.QR != 1 {
		t.Fatalf("unconstrained optimum at q_r=%d", row.Unconstrained.Assignment.QR)
	}
	if math.Abs(row.Unconstrained.Availability-0.72) > 0.03 {
		t.Fatalf("unconstrained availability %g, paper 0.72", row.Unconstrained.Availability)
	}
	if row.WriteAvailAtOpt < 0.20 {
		t.Fatalf("write floor violated: %g", row.WriteAvailAtOpt)
	}
	if row.Constrained.Assignment.QR <= 1 {
		t.Fatal("constraint should push q_r above 1")
	}
	if row.Constrained.Availability > row.Unconstrained.Availability {
		t.Fatal("constrained availability exceeds unconstrained")
	}
}

func TestOptimaTable(t *testing.T) {
	spec0 := Figures[0] // the ring
	res0, err := RunFigure(spec0, sim.PaperParams(), quickCollect(5))
	if err != nil {
		t.Fatal(err)
	}
	rows := OptimaTable([]FigureResult{res0})
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Class != "q_r=1" && r.Class != "majority" && r.Class != "interior" {
			t.Fatalf("bad class %q", r.Class)
		}
		if r.BestQR < 1 || r.BestQR > 50 {
			t.Fatalf("bad best %d", r.BestQR)
		}
		if r.BestA+1e-9 < r.MajorityA {
			t.Fatalf("best %g below majority %g", r.BestA, r.MajorityA)
		}
	}
	// α = 0 on any topology: pure writes, reads ignored; availability is
	// the write tail which rises with q_r, so the optimum is the majority
	// endpoint.
	if rows[0].Alpha != 0 || rows[0].Class != "majority" {
		t.Fatalf("α=0 row: %+v", rows[0])
	}
	// α = 1 on a sparse ring: pure reads, optimum at q_r = 1.
	last := rows[len(rows)-1]
	if last.Alpha != 1 || last.BestQR != 1 {
		t.Fatalf("α=1 row: %+v", last)
	}
}

func TestMeasureAssignmentAgreesWithModel(t *testing.T) {
	// Direct grant counting on topology 0 must agree with the model-based
	// curve within simulation noise.
	spec := Figures[0] // the ring
	res, err := RunFigure(spec, sim.PaperParams(), quickCollect(6))
	if err != nil {
		t.Fatal(err)
	}
	const alpha = 0.5
	a := quorum.Assignment{QR: 10, QW: 92}
	meas, err := sim.MeasureAvailability(topo.Paper(0), nil, sim.PaperParams(), a, alpha, sim.StudyConfig{
		Warmup: 5_000, BatchAccesses: 50_000,
		MinBatches: 3, MaxBatches: 6, CIHalfWidth: 0.01, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Model.Availability(alpha, a.QR)
	if math.Abs(meas.Overall.Mean-want) > 0.03 {
		t.Fatalf("measured %v vs model %g", meas.Overall, want)
	}
}

func TestSeriesBest(t *testing.T) {
	s := Series{Alpha: 0.5, Avail: []float64{0.3, 0.8, 0.8, 0.1}}
	qr, a := s.Best()
	if qr != 2 || a != 0.8 {
		t.Fatalf("best (%d, %g)", qr, a)
	}
}
