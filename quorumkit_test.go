package quorumkit

import (
	"math"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	f := RingDensity(101, 0.96, 0.96)
	m, err := ModelFromDensity(f)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Optimize(0.75)
	if err := res.Assignment.Validate(101); err != nil {
		t.Fatal(err)
	}
	// On the bare ring at α=.75 the optimum is read-one (components are
	// almost always small).
	if res.Assignment.QR != 1 {
		t.Fatalf("ring α=.75 optimum at q_r=%d", res.Assignment.QR)
	}
	if math.Abs(res.Availability-0.72) > 0.01 {
		t.Fatalf("availability %g, want ≈ 0.72", res.Availability)
	}
}

func TestFacadeNamedAssignments(t *testing.T) {
	if a := Majority(101); a.QR != 50 || a.QW != 52 {
		t.Fatalf("Majority %v", a)
	}
	if a := ReadOneWriteAll(101); a.QR != 1 || a.QW != 101 {
		t.Fatalf("ROWA %v", a)
	}
	if a := ForReadQuorum(28, 101); a.QW != 74 {
		t.Fatalf("ForReadQuorum %v", a)
	}
}

func TestFacadeDensities(t *testing.T) {
	for _, f := range []PMF{
		RingDensity(21, 0.9, 0.9),
		CompleteDensity(21, 0.9, 0.9),
		BusDensity(21, 0.9, 0.9, true),
		BusDensity(21, 0.9, 0.9, false),
	} {
		if err := f.Validate(1e-9); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFacadeTopologiesAndState(t *testing.T) {
	g := PaperTopology(16)
	if g.N() != 101 || g.M() != 117 {
		t.Fatalf("topology 16: %d/%d", g.N(), g.M())
	}
	st := NewNetworkState(Ring(5), nil)
	if st.TotalVotes() != 5 {
		t.Fatalf("votes %d", st.TotalVotes())
	}
	if Complete(4).M() != 6 {
		t.Fatal("complete graph")
	}
}

func TestFacadeSimulationPipeline(t *testing.T) {
	g := Ring(21)
	m, err := CollectModel(g, 50_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Endpoint identity A(1,1) ≈ p = 0.96.
	if got := m.Availability(1, 1); math.Abs(got-0.96) > 0.02 {
		t.Fatalf("A(1,1) = %g", got)
	}
	res := m.Optimize(0.5)
	if err := res.Assignment.Validate(21); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeReplicationStack(t *testing.T) {
	g := Ring(9)
	st := NewNetworkState(g, nil)
	obj, err := NewObject(st, Majority(9))
	if err != nil {
		t.Fatal(err)
	}
	if !obj.Write(0, 5) {
		t.Fatal("write denied")
	}
	v, _, ok := obj.Read(8)
	if !ok || v != 5 {
		t.Fatalf("read (%d,%v)", v, ok)
	}
	est := NewEstimator(9, 9)
	for i := 0; i < 9; i++ {
		for k := 0; k < 100; k++ {
			est.Observe(i, 3)
		}
	}
	mgr := NewManager(obj, est, 1.0)
	changed, err := mgr.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("manager should reassign toward small read quorums")
	}
}

func TestFacadeNewSurfaces(t *testing.T) {
	st := NewNetworkState(Ring(5), nil)
	d := NewDatabase(st)
	if err := d.Create("x", Majority(5)); err != nil {
		t.Fatal(err)
	}
	if ok, err := d.Write("x", 0, 7); err != nil || !ok {
		t.Fatalf("db write %v %v", ok, err)
	}
	c, err := NewCluster(NewNetworkState(Ring(5), nil), Majority(5))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Write(0, 1) {
		t.Fatal("cluster write")
	}
	a, err := NewAsyncCluster(NewNetworkState(Ring(5), nil), Majority(5))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if !a.Write(0, 1) {
		t.Fatal("async write")
	}
	if _, err := GridCoterie(3, 3); err != nil {
		t.Fatal(err)
	}
	var log HistoryLog
	log.RecordWrite(0, true, 1, 1, 0.5)
	if err := log.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeHeteroRingOptimization(t *testing.T) {
	// An asymmetric ring: one fragile arc. Build a model from the exact
	// per-site densities and optimize with access weights concentrated on
	// the reliable half.
	n := 11
	ps := make([]float64, n)
	rs := make([]float64, n)
	weights := make([]float64, n)
	for i := range ps {
		ps[i], rs[i], weights[i] = 0.98, 0.98, 1
		if i < 4 {
			ps[i], rs[i] = 0.6, 0.6 // fragile arc
		}
	}
	fs := RingHeteroDensities(ps, rs)
	for i, f := range fs {
		if err := f.Validate(1e-9); err != nil {
			t.Fatalf("site %d: %v", i, err)
		}
	}
	sum := 0.0
	for i := range weights {
		sum += weights[i]
	}
	for i := range weights {
		weights[i] /= sum
	}
	m, err := NewModel(weights, weights, fs)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Optimize(0.75)
	if err := res.Assignment.Validate(n); err != nil {
		t.Fatal(err)
	}
	if res.Availability <= 0 || res.Availability >= 1 {
		t.Fatalf("availability %g", res.Availability)
	}
}

func TestFacadeSimulatorDirect(t *testing.T) {
	s := NewSimulator(Ring(11), nil, PaperParams(), 3)
	s.RunAccesses(100)
	if s.AccessCount() != 100 {
		t.Fatalf("accesses %d", s.AccessCount())
	}
}
