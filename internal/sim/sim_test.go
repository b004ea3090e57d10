package sim

import (
	"math"
	"testing"

	"quorumkit/internal/core"
	"quorumkit/internal/dist"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

func TestEventHeapOrdering(t *testing.T) {
	var h eventHeap
	h.push(3.0, evAccess, 0)
	h.push(1.0, evSiteFail, 1)
	h.push(2.0, evLinkFail, 2)
	h.push(1.0, evSiteRepair, 3) // same time as seq-earlier push → after it
	var got []float64
	var kinds []eventKind
	for h.len() > 0 {
		e := h.pop()
		got = append(got, e.at)
		kinds = append(kinds, e.kind)
	}
	want := []float64{1, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v", got)
		}
	}
	if kinds[0] != evSiteFail || kinds[1] != evSiteRepair {
		t.Fatalf("tie-break order %v", kinds)
	}
}

func TestPaperParams(t *testing.T) {
	p := PaperParams()
	if p.AccessMean != 1 || p.FailMean != 128 {
		t.Fatalf("params %+v", p)
	}
	if math.Abs(p.Reliability()-0.96) > 1e-12 {
		t.Fatalf("reliability %g", p.Reliability())
	}
}

func TestParamsValidate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad params should panic")
		}
	}()
	New(graph.Ring(3), nil, Params{AccessMean: 1, FailMean: 0, RepairMean: 1}, 1)
}

func TestCountersArithmetic(t *testing.T) {
	c := Counters{ReadsGranted: 30, ReadsDenied: 10, WritesGranted: 15, WritesDenied: 45}
	if c.Accesses() != 100 {
		t.Fatalf("accesses %d", c.Accesses())
	}
	if math.Abs(c.Availability()-0.45) > 1e-12 {
		t.Fatalf("availability %g", c.Availability())
	}
	if math.Abs(c.ReadAvailability()-0.75) > 1e-12 {
		t.Fatalf("read availability %g", c.ReadAvailability())
	}
	if math.Abs(c.WriteAvailability()-0.25) > 1e-12 {
		t.Fatalf("write availability %g", c.WriteAvailability())
	}
	var zero Counters
	if zero.Availability() != 0 || zero.ReadAvailability() != 0 || zero.WriteAvailability() != 0 {
		t.Fatal("zero counters should report 0")
	}
}

func TestStationaryReliability(t *testing.T) {
	// Time-weighted estimate of P[site down] must match 1 − μ_f/(μ_f+μ_r).
	p := Params{AccessMean: 1, FailMean: 10, RepairMean: 10.0 / 9.0} // rel 0.9
	g := graph.Ring(3)
	s := New(g, nil, p, 42)
	est := core.NewEstimator(3, 3)
	s.AttachTimeWeighted(est, nil)
	s.RunUntil(30000)
	f := est.Density(0)
	if math.Abs(f[0]-0.1) > 0.01 {
		t.Fatalf("P[down] = %g, want 0.10", f[0])
	}
}

func TestTimeWeightedMatchesAnalytic(t *testing.T) {
	// K5 with independent exponential alternation: the stationary density
	// of each site's component votes is the Gilbert closed form.
	const rel = 0.9
	p := Params{AccessMean: 1, FailMean: 10, RepairMean: 10 * (1 - rel) / rel}
	g := graph.Complete(5)
	s := New(g, nil, p, 7)
	est := core.NewEstimator(5, 5)
	s.RunUntil(500) // warm-up
	s.AttachTimeWeighted(est, nil)
	s.RunUntil(50500)
	want := dist.Complete(5, rel, rel)
	got := est.Density(0)
	for v := 0; v <= 5; v++ {
		if math.Abs(got[v]-want[v]) > 0.02 {
			t.Fatalf("f(%d) = %g, analytic %g", v, got[v], want[v])
		}
	}
}

func TestSampledMatchesTimeWeighted(t *testing.T) {
	// PASTA: access-sampled and time-weighted densities agree.
	const rel = 0.9
	p := Params{AccessMean: 1, FailMean: 10, RepairMean: 10 * (1 - rel) / rel}
	g := graph.Complete(5)

	sw := New(g, nil, p, 11)
	estW := core.NewEstimator(5, 5)
	sw.AttachTimeWeighted(estW, nil)
	sw.RunUntil(30000)

	ss := New(g, nil, p, 13)
	estS := core.NewEstimator(5, 5)
	ss.AttachEstimator(estS)
	ss.RunAccesses(150000)

	fw, fs := estW.Density(2), estS.Density(2)
	for v := 0; v <= 5; v++ {
		if math.Abs(fw[v]-fs[v]) > 0.02 {
			t.Fatalf("f(%d): time-weighted %g vs sampled %g", v, fw[v], fs[v])
		}
	}
}

func TestDirectMeasurementMatchesModel(t *testing.T) {
	// Measured grant rates for a static assignment must match the analytic
	// availability computed from the closed-form density.
	const rel = 0.9
	p := Params{AccessMean: 1, FailMean: 10, RepairMean: 10 * (1 - rel) / rel}
	g := graph.Complete(5)
	a := quorum.Assignment{QR: 2, QW: 4}
	const alpha = 0.5
	cfg := StudyConfig{
		Warmup: 2000, BatchAccesses: 60000,
		MinBatches: 4, MaxBatches: 8, CIHalfWidth: 0.004, Seed: 3,
	}
	meas, err := MeasureAvailability(g, nil, p, a, alpha, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := dist.Complete(5, rel, rel)
	m, err := core.ModelFromSingleDensity(f)
	if err != nil {
		t.Fatal(err)
	}
	want := alpha*m.ReadAvail(a.QR) + (1-alpha)*m.WriteAvail(a.QW)
	if math.Abs(meas.Overall.Mean-want) > 0.015 {
		t.Fatalf("measured %v, analytic %g", meas.Overall, want)
	}
	if meas.Batches < cfg.MinBatches || meas.Batches > cfg.MaxBatches {
		t.Fatalf("batches %d", meas.Batches)
	}
	// Read and write channels must bracket the overall figure.
	lo := math.Min(meas.Read.Mean, meas.Write.Mean)
	hi := math.Max(meas.Read.Mean, meas.Write.Mean)
	if meas.Overall.Mean < lo-0.02 || meas.Overall.Mean > hi+0.02 {
		t.Fatalf("overall %g outside read %g / write %g", meas.Overall.Mean, meas.Read.Mean, meas.Write.Mean)
	}
}

func TestMeasureValidation(t *testing.T) {
	g := graph.Ring(5)
	p := PaperParams()
	if _, err := MeasureAvailability(g, nil, p, quorum.Assignment{QR: 1, QW: 1}, 0.5, PaperStudy()); err == nil {
		t.Fatal("invalid assignment should error")
	}
	bad := PaperStudy()
	bad.BatchAccesses = 0
	if _, err := MeasureAvailability(g, nil, p, quorum.Assignment{QR: 1, QW: 5}, 0.5, bad); err == nil {
		t.Fatal("invalid config should error")
	}
	bad = PaperStudy()
	bad.MinBatches = 5
	bad.MaxBatches = 2
	if _, err := MeasureAvailability(g, nil, p, quorum.Assignment{QR: 1, QW: 5}, 0.5, bad); err == nil {
		t.Fatal("MaxBatches < MinBatches should error")
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.Ring(7)
	p := Params{AccessMean: 1, FailMean: 8, RepairMean: 2}
	run := func() Counters {
		s := New(g, nil, p, 123)
		s.SetProtocol(StaticProtocol{Assignment: quorum.Assignment{QR: 3, QW: 5}}, 0.5)
		s.RunAccesses(20000)
		return s.Counters()
	}
	if run() != run() {
		t.Fatal("same seed must give identical results")
	}
}

func TestCallbacksFire(t *testing.T) {
	g := graph.Ring(5)
	p := Params{AccessMean: 1, FailMean: 5, RepairMean: 1}
	s := New(g, nil, p, 9)
	accesses := 0
	s.OnAccess = func(site, votes int, at float64) {
		if site < 0 || site >= 5 || votes < 0 || votes > 5 {
			t.Fatalf("bad access callback site=%d votes=%d", site, votes)
		}
		accesses++
	}
	s.RunAccesses(1000)
	if accesses != 1000 {
		t.Fatalf("access callbacks %d", accesses)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	g := graph.Ring(4)
	s := New(g, nil, Params{AccessMean: 1, FailMean: 100, RepairMean: 1}, 5)
	s.RunUntil(12.5)
	if s.now != 12.5 {
		t.Fatalf("now = %g", s.now)
	}
	if s.AccessCount() != 0 {
		t.Fatal("no access events should exist without a consumer")
	}
	s.RunAccesses(10)
	if s.AccessCount() != 10 {
		t.Fatalf("access count %d", s.AccessCount())
	}
}

func TestSetProtocolValidatesAlpha(t *testing.T) {
	g := graph.Ring(4)
	s := New(g, nil, PaperParams(), 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.SetProtocol(StaticProtocol{Assignment: quorum.Assignment{QR: 1, QW: 4}}, 1.5)
}

func TestCollectModes(t *testing.T) {
	const rel = 0.9
	p := Params{AccessMean: 1, FailMean: 10, RepairMean: 10 * (1 - rel) / rel}
	g := graph.Complete(5)
	want := dist.Complete(5, rel, rel)
	mAnalytic, err := core.ModelFromSingleDensity(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []EstimationMode{Sampled, TimeWeighted} {
		m, est, err := Collect(g, nil, p, CollectConfig{
			Mode: mode, Accesses: 120000, Warmup: 2000, Seed: 21,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if est.Weight(i) == 0 {
				t.Fatalf("estimator recorded nothing for site %d", i)
			}
		}
		for _, alpha := range []float64{0, 0.5, 1} {
			for qr := 1; qr <= 2; qr++ {
				got := m.Availability(alpha, qr)
				ref := mAnalytic.Availability(alpha, qr)
				if math.Abs(got-ref) > 0.03 {
					t.Fatalf("%v: A(%g,%d) = %g, analytic %g", mode, alpha, qr, got, ref)
				}
			}
		}
	}
}

func TestCollectValidation(t *testing.T) {
	g := graph.Ring(4)
	if _, _, err := Collect(g, nil, PaperParams(), CollectConfig{Accesses: 0}); err == nil {
		t.Fatal("zero horizon should error")
	}
	if _, _, err := Collect(g, nil, PaperParams(), CollectConfig{Accesses: 10, Mode: EstimationMode(9)}); err == nil {
		t.Fatal("unknown mode should error")
	}
	if EstimationMode(9).String() == "" || Sampled.String() != "sampled" || TimeWeighted.String() != "time-weighted" {
		t.Fatal("mode names")
	}
}

func BenchmarkSimulatorRing101(b *testing.B) {
	g := graph.Ring(101)
	p := PaperParams()
	s := New(g, nil, p, 1)
	s.RunAccesses(1) // force access scheduling before timing
	b.ResetTimer()
	s.RunAccesses(int64(b.N))
}

func BenchmarkSimulatorComplete101(b *testing.B) {
	g := graph.Complete(101)
	p := PaperParams()
	s := New(g, nil, p, 1)
	s.RunAccesses(1)
	b.ResetTimer()
	s.RunAccesses(int64(b.N))
}
