package sim

import (
	"math"
	"reflect"
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/strategy"
)

// healthyParams: component failures so rare they never occur within the
// test horizon, making the simulator a pure queueing view of the strategy —
// the regime the LP models exactly.
func healthyParams() Params {
	return Params{AccessMean: 1, FailMean: 1e12, RepairMean: 1e-6}
}

func strategyStudy() StudyConfig {
	return StudyConfig{
		Warmup:        1_000,
		BatchAccesses: 200_000,
		MinBatches:    5,
		MaxBatches:    5,
		CIHalfWidth:   0.001,
		Seed:          11,
	}
}

// TestStrategyLoadAgreesWithLP is the PR's simulator-agreement criterion:
// at negligible failure rates the measured per-site loads and the
// throughput ceiling land within 2% of the LP's closed-form prediction.
func TestStrategyLoadAgreesWithLP(t *testing.T) {
	sys := strategy.CaseStudySystem()
	const fr = 0.7
	res, err := strategy.OptimizeCapacity(sys, strategy.SingleFr(fr), strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := MeasureStrategyLoad(graph.Complete(5), sys, healthyParams(),
		res.Strategy, fr, strategyStudy())
	if err != nil {
		t.Fatal(err)
	}
	if m.Overall.Mean < 0.9999 {
		t.Fatalf("availability %.6f with no failures", m.Overall.Mean)
	}
	want := res.Strategy.SiteLoads(sys, fr)
	worst := 0.0
	for _, l := range want {
		worst = math.Max(worst, l)
	}
	for x, l := range want {
		// Sites carrying real load must agree to 2%; idle sites must stay
		// within 2% of the bottleneck in absolute terms.
		if l > worst/10 {
			if rel := math.Abs(m.PerSite[x]-l) / l; rel > 0.02 {
				t.Errorf("site %d load %.6g, LP predicts %.6g (rel %.3f)", x, m.PerSite[x], l, rel)
			}
		} else if math.Abs(m.PerSite[x]-l) > 0.02*worst {
			t.Errorf("site %d load %.6g, LP predicts %.6g", x, m.PerSite[x], l)
		}
	}
	if rel := math.Abs(m.MaxLoad.Mean-worst) / worst; rel > 0.02 {
		t.Errorf("max load %.6g, LP predicts %.6g (rel %.3f)", m.MaxLoad.Mean, worst, rel)
	}
	if rel := math.Abs(m.Capacity.Mean-res.Capacity) / res.Capacity; rel > 0.02 {
		t.Errorf("capacity %.1f, LP predicts %.1f (rel %.3f)", m.Capacity.Mean, res.Capacity, rel)
	}
}

// TestStrategyMeasurementDeterministic: the measurement is a pure function
// of its inputs — same seed, same result, bit for bit.
func TestStrategyMeasurementDeterministic(t *testing.T) {
	sys := strategy.CaseStudySystem()
	res, err := strategy.OptimizeCapacity(sys, strategy.CaseStudyFrDist(), strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := strategyStudy()
	cfg.BatchAccesses = 20_000
	p := PaperParams()
	a, err := MeasureStrategyLoad(graph.Ring(5), sys, p, res.Strategy, 0.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureStrategyLoad(graph.Ring(5), sys, p, res.Strategy, 0.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeds diverged:\n%+v\n%+v", a, b)
	}
	cfg.Seed++
	c, err := MeasureStrategyLoad(graph.Ring(5), sys, p, res.Strategy, 0.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical measurements")
	}
}

// TestStrategyTrajectoryMatchesProtocol: attaching a strategy instead of a
// protocol leaves the event trajectory untouched — the same number of
// accesses and the same simulated clock, because quorum sampling draws
// only from the policy's private substream.
func TestStrategyTrajectoryMatchesProtocol(t *testing.T) {
	sys := strategy.CaseStudySystem()
	res, err := strategy.OptimizeCapacity(sys, strategy.CaseStudyFrDist(), strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewStrategyPolicy(res.Strategy, 5, 99)
	if err != nil {
		t.Fatal(err)
	}
	p := PaperParams()
	g := graph.Ring(5)

	s1 := New(g, sys.Votes, p, 7)
	s1.SetStrategyPolicy(sp, 0.5)
	s1.RunAccesses(50_000)

	s2 := New(g, sys.Votes, p, 7)
	s2.SetProtocol(StaticProtocol{Assignment: quorum.Assignment{QR: sys.QR, QW: sys.QW}}, 0.5)
	s2.RunAccesses(50_000)

	if s1.now != s2.now || s1.AccessCount() != s2.AccessCount() {
		t.Fatalf("trajectories diverged: t=%g/%g accesses=%d/%d",
			s1.now, s2.now, s1.AccessCount(), s2.AccessCount())
	}
	// Both judge the same read/write split (shared Bernoulli draws).
	c1, c2 := s1.Counters(), s2.Counters()
	if c1.ReadsGranted+c1.ReadsDenied != c2.ReadsGranted+c2.ReadsDenied {
		t.Fatalf("read/write split diverged: %+v vs %+v", c1, c2)
	}
}

// TestStrategyObsCounters: the CStrategy* counters account for every access
// and every probe once.
func TestStrategyObsCounters(t *testing.T) {
	sys := strategy.CaseStudySystem()
	res, err := strategy.OptimizeCapacity(sys, strategy.CaseStudyFrDist(), strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewStrategyPolicy(res.Strategy, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	s := New(graph.Ring(5), sys.Votes, PaperParams(), 1)
	s.AttachObs(reg)
	s.SetStrategyPolicy(sp, 0.5)
	const accesses = 20_000
	s.RunAccesses(accesses)
	c := s.Counters()
	granted := reg.Counter(obs.CStrategyRead) + reg.Counter(obs.CStrategyWrite)
	if granted != c.ReadsGranted+c.WritesGranted {
		t.Fatalf("obs grants %d, counters say %d", granted, c.ReadsGranted+c.WritesGranted)
	}
	if deny := reg.Counter(obs.CStrategyDeny); deny != c.ReadsDenied+c.WritesDenied {
		t.Fatalf("obs denies %d, counters say %d", deny, c.ReadsDenied+c.WritesDenied)
	}
	if probes := reg.Counter(obs.CStrategyProbe); probes < 3*accesses {
		// Every quorum in the case-study pools has ≥ 3 members.
		t.Fatalf("only %d probes over %d accesses", probes, accesses)
	}
}

// TestStrategyPolicyRejects covers validation and attachment errors.
func TestStrategyPolicyRejects(t *testing.T) {
	sys := strategy.CaseStudySystem()
	good := strategy.Strategy{
		ReadQuorums: []strategy.Quorum{{0, 1, 2}}, ReadProbs: []float64{1},
		WriteQuorums: []strategy.Quorum{{0, 1, 2}}, WriteProbs: []float64{1},
	}
	if _, err := NewStrategyPolicy(strategy.Strategy{}, 5, 0); err == nil {
		t.Error("empty strategy accepted")
	}
	if _, err := NewStrategyPolicy(good, 2, 0); err == nil {
		t.Error("out-of-range quorum accepted")
	}
	cfg := strategyStudy()
	if _, err := MeasureStrategyLoad(graph.Ring(7), sys, PaperParams(), good, 0.5, cfg); err == nil {
		t.Error("graph/system size mismatch accepted")
	}
	bad := good
	bad.WriteQuorums = []strategy.Quorum{{0, 1}} // under the write threshold
	if _, err := MeasureStrategyLoad(graph.Ring(5), sys, PaperParams(), bad, 0.5, cfg); err == nil {
		t.Error("invalid strategy accepted")
	}
	badCfg := cfg
	badCfg.BatchAccesses = 0
	if _, err := MeasureStrategyLoad(graph.Ring(5), sys, PaperParams(), good, 0.5, badCfg); err == nil {
		t.Error("bad study config accepted")
	}

	sp, err := NewStrategyPolicy(good, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(graph.Ring(5), nil, PaperParams(), 1)
	for name, f := range map[string]func(){
		"alpha": func() { s.SetStrategyPolicy(sp, 1.5) },
		"size":  func() { New(graph.Ring(7), nil, PaperParams(), 1).SetStrategyPolicy(sp, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
