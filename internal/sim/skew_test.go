package sim

import (
	"math"
	"strings"
	"testing"
	"time"

	"quorumkit/internal/core"
	"quorumkit/internal/dist"
	"quorumkit/internal/graph"
	"quorumkit/internal/topo"
)

func TestSkewedAccessRates(t *testing.T) {
	g := graph.Path(3)
	p := Params{
		AccessMean: 1, FailMean: 50, RepairMean: 5,
		AccessWeights: []float64{8, 1, 1},
	}
	s := New(g, nil, p, 5)
	counts := make([]int, 3)
	s.OnAccess = func(site, votes int, at float64) { counts[site]++ }
	s.RunAccesses(50_000)
	frac0 := float64(counts[0]) / 50_000
	if math.Abs(frac0-0.8) > 0.01 {
		t.Fatalf("site 0 fraction %g, want 0.8", frac0)
	}
	if counts[1] == 0 || counts[2] == 0 {
		t.Fatal("low-weight sites silent")
	}
}

func TestZeroWeightSilencesSite(t *testing.T) {
	g := graph.Path(3)
	p := Params{
		AccessMean: 1, FailMean: 50, RepairMean: 5,
		AccessWeights: []float64{1, 0, 1},
	}
	s := New(g, nil, p, 7)
	counts := make([]int, 3)
	s.OnAccess = func(site, votes int, at float64) { counts[site]++ }
	s.RunAccesses(10_000)
	if counts[1] != 0 {
		t.Fatalf("silenced site submitted %d accesses", counts[1])
	}
}

func TestWeightValidation(t *testing.T) {
	g := graph.Path(3)
	for name, p := range map[string]Params{
		"negative": {AccessMean: 1, FailMean: 1, RepairMean: 1, AccessWeights: []float64{1, -1, 1}},
		"length":   {AccessMean: 1, FailMean: 1, RepairMean: 1, AccessWeights: []float64{1, 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s weights should panic", name)
				}
			}()
			New(g, nil, p, 1)
		}()
	}
}

// TestParamsValidateAccessWeights: a weight vector must describe a finite,
// positive total access rate. All-zero weights used to hang RunAccesses and
// hand Collect a 0/0 horizon; NaN slipped past the w < 0 test.
func TestParamsValidateAccessWeights(t *testing.T) {
	base := Params{AccessMean: 1, FailMean: 50, RepairMean: 5}
	for _, tc := range []struct {
		name    string
		weights []float64
		wantErr string // substring; "" = legal
	}{
		{"uniform (nil)", nil, ""},
		{"some sites silent", []float64{0, 2, 0}, ""},
		{"all zero", []float64{0, 0, 0}, "sum to 0 over 3 sites"},
		{"NaN", []float64{1, math.NaN(), 1}, "NaN at site 1"},
		{"+Inf", []float64{1, 1, math.Inf(1)}, "+Inf at site 2"},
		{"-Inf", []float64{math.Inf(-1), 1, 1}, "-Inf at site 0"},
		{"negative", []float64{1, -0.5, 1}, "-0.5 at site 1"},
		{"sum overflows", []float64{math.MaxFloat64, math.MaxFloat64, 1}, "sum to +Inf"},
	} {
		p := base
		p.AccessWeights = tc.weights
		err := p.validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestAllZeroWeightsRejected drives the two entry points the bug was
// reproduced through, under a watchdog: New(...).RunAccesses used to spin
// forever (no access event is ever scheduled) and Collect used to return a
// model over a NaN horizon with a nil error. Both must now refuse at
// construction.
func TestAllZeroWeightsRejected(t *testing.T) {
	g := topo.Paper(0)
	p := PaperParams()
	p.AccessWeights = make([]float64, g.N())
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"Collect", func() {
			_, _, err := Collect(g, nil, p, CollectConfig{Mode: TimeWeighted, Accesses: 100, Seed: 1})
			t.Errorf("Collect returned (err = %v) over an undefined horizon", err)
		}},
		{"RunAccesses", func() { New(g, nil, p, 1).RunAccesses(10) }},
	} {
		name, run := tc.name, tc.run
		done := make(chan any, 1) // one send, whether or not the watchdog still listens
		go func() {
			defer func() { done <- recover() }()
			run()
		}()
		select {
		case r := <-done:
			if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "sum to 0") {
				t.Errorf("%s: want a panic naming the zero sum, got %v", name, r)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("%s: still running after 3 s with all-zero access weights", name)
		}
	}
}

func TestSkewedCollectMatchesWeightedModel(t *testing.T) {
	// A hotspot end-site on a path: the access-weighted availability must
	// match mixing the exact per-site densities with the same weights.
	g := graph.Path(4)
	const rel = 0.9
	weights := []float64{6, 2, 1, 1}
	p := Params{
		AccessMean: 1, FailMean: 10, RepairMean: 10 * (1 - rel) / rel,
		AccessWeights: weights,
	}
	m, _, err := Collect(g, nil, p, CollectConfig{
		Mode: TimeWeighted, Accesses: 300_000, Warmup: 10_000, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := dist.Exact(g, nil, rel, rel)
	pmfs := make([]dist.PMF, len(fs))
	copy(pmfs, fs)
	fr := make([]float64, 4)
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	for i, w := range weights {
		fr[i] = w / sum
	}
	ref, err := core.NewModel(fr, fr, pmfs)
	if err != nil {
		t.Fatal(err)
	}
	for qr := 1; qr <= 2; qr++ {
		for _, alpha := range []float64{0, 0.5, 1} {
			got := m.Availability(alpha, qr)
			want := ref.Availability(alpha, qr)
			if math.Abs(got-want) > 0.03 {
				t.Fatalf("A(%g,%d) = %g, exact weighted model %g", alpha, qr, got, want)
			}
		}
	}
	// The skew must matter: the uniform-weight model disagrees with the
	// weighted one somewhere (sanity that the test is not vacuous).
	uni, err := core.NewModel(nil, nil, pmfs)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for qr := 1; qr <= 2; qr++ {
		if math.Abs(uni.Availability(1, qr)-ref.Availability(1, qr)) > 1e-6 {
			differs = true
		}
	}
	if !differs {
		t.Fatal("weighted and uniform models coincide; skew test is vacuous")
	}
}

func TestSkewedSampledEstimator(t *testing.T) {
	// In sampled mode the per-site histograms fill proportionally to the
	// access weights.
	g := graph.Path(3)
	p := Params{
		AccessMean: 1, FailMean: 50, RepairMean: 5,
		AccessWeights: []float64{4, 1, 1},
	}
	s := New(g, nil, p, 11)
	est := core.NewEstimator(3, 3)
	s.AttachEstimator(est)
	s.RunAccesses(60_000)
	ratio := est.Weight(0) / est.Weight(1)
	if math.Abs(ratio-4) > 0.3 {
		t.Fatalf("weight ratio %g, want ≈ 4", ratio)
	}
}
