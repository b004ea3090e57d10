package strategy

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"quorumkit/internal/rng"
)

func TestSystemValidate(t *testing.T) {
	good := CaseStudySystem()
	if err := good.Validate(); err != nil {
		t.Fatalf("case study rejected: %v", err)
	}
	cases := map[string]func(*System){
		"empty":             func(s *System) { s.Votes = nil },
		"length mismatch":   func(s *System) { s.ReadCap = s.ReadCap[:3] },
		"negative votes":    func(s *System) { s.Votes[2] = -1 },
		"zero votes":        func(s *System) { s.Votes = []int{0, 0, 0, 0, 0} },
		"qr zero":           func(s *System) { s.QR = 0 },
		"qw over T":         func(s *System) { s.QW = 99 },
		"reads miss writes": func(s *System) { s.QR, s.QW = 1, 3 },
		"write conflict":    func(s *System) { s.QR, s.QW = 5, 2 },
		"zero capacity":     func(s *System) { s.WriteCap[0] = 0 },
		"NaN latency":       func(s *System) { s.Latency[4] = math.NaN() },
		"inf read cap":      func(s *System) { s.ReadCap[1] = math.Inf(1) },
	}
	for name, mutate := range cases {
		s := CaseStudySystem()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFrDist(t *testing.T) {
	d, err := NewFrDist(map[float64]float64{0.9: 3, 0.1: 1, 0.5: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Fr) != 2 || d.Fr[0] != 0.1 || d.Fr[1] != 0.9 {
		t.Fatalf("zero-weight atom not dropped or order wrong: %v", d.Fr)
	}
	if math.Abs(d.P[0]-0.25) > 1e-15 || math.Abs(d.P[1]-0.75) > 1e-15 {
		t.Fatalf("normalization wrong: %v", d.P)
	}
	if m := d.Mean(); math.Abs(m-0.7) > 1e-12 {
		t.Fatalf("mean %g, want 0.7", m)
	}
	if err := d.validate(); err != nil {
		t.Fatal(err)
	}
	if s := SingleFr(0.25); len(s.Fr) != 1 || s.Fr[0] != 0.25 || s.P[0] != 1 {
		t.Fatalf("SingleFr wrong: %+v", s)
	}
	for name, w := range map[string]map[float64]float64{
		"fraction over 1": {1.5: 1},
		"negative weight": {0.5: -1},
		"NaN weight":      {0.5: math.NaN()},
		"all zero":        {0.5: 0},
	} {
		if _, err := NewFrDist(w); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestStrategyLoadsAndLatency(t *testing.T) {
	sys := CaseStudySystem()
	st := Strategy{
		ReadQuorums:  []Quorum{{0, 1, 2}, {2, 3, 4}},
		ReadProbs:    []float64{0.75, 0.25},
		WriteQuorums: []Quorum{{0, 2, 4}},
		WriteProbs:   []float64{1},
	}
	if err := st.Validate(sys); err != nil {
		t.Fatal(err)
	}
	rho := st.SiteReadProbs(sys.N())
	want := []float64{0.75, 0.75, 1.0, 0.25, 0.25}
	for x := range rho {
		if math.Abs(rho[x]-want[x]) > 1e-15 {
			t.Fatalf("rho = %v, want %v", rho, want)
		}
	}
	// Hand-computed load at fr = 0.5 for site 2 (in both pools):
	// 0.5·1.0/4000 + 0.5·1.0/2000.
	loads := st.SiteLoads(sys, 0.5)
	if w := 0.5/4000 + 0.5/2000; math.Abs(loads[2]-w) > 1e-15 {
		t.Fatalf("site 2 load %g, want %g", loads[2], w)
	}
	if ml := st.MaxLoad(sys, 0.5); math.Abs(ml-loads[2]) > 1e-15 {
		t.Fatalf("max load %g, want site 2's %g", ml, loads[2])
	}
	// ExpectedMaxLoad at a point mass equals MaxLoad; capacity inverts it.
	d := SingleFr(0.5)
	if e := st.ExpectedMaxLoad(sys, d); math.Abs(e-st.MaxLoad(sys, 0.5)) > 1e-15 {
		t.Fatalf("expected max load %g", e)
	}
	if c := st.Capacity(sys, d); math.Abs(c*st.MaxLoad(sys, 0.5)-1) > 1e-12 {
		t.Fatalf("capacity %g does not invert max load", c)
	}
	// Latency of a quorum is its slowest member: {0,1,2} = 3, {2,3,4} = 5.
	if r, w := st.ReadQuorums[0].latency(sys.Latency), st.WriteQuorums[0].latency(sys.Latency); r != 3 || w != 5 {
		t.Fatalf("quorum latencies %g, %g, want 3, 5", r, w)
	}
}

func TestStrategyValidateRejects(t *testing.T) {
	sys := CaseStudySystem()
	base := func() Strategy {
		return Strategy{
			ReadQuorums: []Quorum{{0, 1, 2}}, ReadProbs: []float64{1},
			WriteQuorums: []Quorum{{1, 2, 3}}, WriteProbs: []float64{1},
		}
	}
	cases := map[string]func(*Strategy){
		"no quorums":      func(s *Strategy) { s.ReadQuorums = nil; s.ReadProbs = nil },
		"prob mismatch":   func(s *Strategy) { s.ReadProbs = []float64{0.5, 0.5} },
		"empty quorum":    func(s *Strategy) { s.WriteQuorums = []Quorum{{}} },
		"site range":      func(s *Strategy) { s.ReadQuorums = []Quorum{{0, 1, 9}} },
		"unsorted":        func(s *Strategy) { s.ReadQuorums = []Quorum{{2, 1, 0}} },
		"under threshold": func(s *Strategy) { s.WriteQuorums = []Quorum{{0, 1}} },
		"negative prob":   func(s *Strategy) { s.ReadProbs = []float64{-0.2}; s.ReadQuorums = []Quorum{{0, 1, 2}} },
		"sum not one":     func(s *Strategy) { s.WriteProbs = []float64{0.5} },
	}
	for name, mutate := range cases {
		st := base()
		mutate(&st)
		if err := st.Validate(sys); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCanonicalAndJSON(t *testing.T) {
	// Unsorted quorums, out-of-order entries, and a below-eps speck all
	// canonicalize away; two equivalent forms serialize identically.
	a := Strategy{
		ReadQuorums:  []Quorum{{4, 2, 0}, {0, 1, 2}, {1, 2, 3}},
		ReadProbs:    []float64{0.5, 0.5, 1e-15},
		WriteQuorums: []Quorum{{0, 1, 2}},
		WriteProbs:   []float64{1},
	}
	b := Strategy{
		ReadQuorums:  []Quorum{{0, 1, 2}, {0, 2, 4}},
		ReadProbs:    []float64{0.5, 0.5},
		WriteQuorums: []Quorum{{2, 1, 0}},
		WriteProbs:   []float64{1},
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("equivalent strategies serialize differently:\n%s\n%s", ja, jb)
	}
	var back Strategy
	if err := json.Unmarshal(ja, &back); err != nil {
		t.Fatal(err)
	}
	jc, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jc) {
		t.Fatalf("round trip not stable:\n%s\n%s", ja, jc)
	}
	c := a.Canonical(1e-12)
	if len(c.ReadQuorums) != 2 {
		t.Fatalf("speck survived canonicalization: %v", c.ReadQuorums)
	}
	sum := 0.0
	for _, p := range c.ReadProbs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("canonical probs sum to %g", sum)
	}
}

// TestSamplerDistribution: empirical frequencies from the sampler converge
// to the strategy's probabilities, and identical seeds give identical draws.
func TestSamplerDistribution(t *testing.T) {
	st := Strategy{
		ReadQuorums:  []Quorum{{0, 1, 2}, {0, 2, 4}, {2, 3, 4}},
		ReadProbs:    []float64{0.5, 0.3, 0.2},
		WriteQuorums: []Quorum{{0, 1, 2}, {1, 2, 3}},
		WriteProbs:   []float64{0.6, 0.4},
	}
	sp := NewSampler(st)
	const draws = 200000
	src := rng.New(42)
	counts := make([]int, len(st.ReadQuorums))
	for i := 0; i < draws; i++ {
		q := sp.SampleRead(src)
		for k := range st.ReadQuorums {
			if keyOf(st.ReadQuorums[k]) == keyOf(q) {
				counts[k]++
			}
		}
	}
	for k, p := range st.ReadProbs {
		got := float64(counts[k]) / draws
		if math.Abs(got-p) > 0.005 {
			t.Errorf("read quorum %d sampled at %.4f, want %.2f", k, got, p)
		}
	}
	// Seed determinism: same substream, same sequence.
	a, b := rng.New(7), rng.New(7)
	for i := 0; i < 1000; i++ {
		qa, qb := sp.SampleWrite(a), sp.SampleWrite(b)
		if keyOf(qa) != keyOf(qb) {
			t.Fatalf("draw %d diverged between identical seeds", i)
		}
	}
}

// TestMajoritySystem: the weighted-vote search's bridge into the capacity
// LP — majority pairing thresholds, validated by construction, nil latency
// defaulted, and the input votes copied rather than aliased.
func TestMajoritySystem(t *testing.T) {
	votes := []int{3, 0, 1, 1}
	sys, err := MajoritySystem(votes, []float64{4, 2, 4, 2}, []float64{2, 1, 2, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys.QR != 2 || sys.QW != 4 { // T=5: q_r=⌊5/2⌋=2, q_w=5−2+1=4
		t.Fatalf("thresholds (%d, %d), want (2, 4)", sys.QR, sys.QW)
	}
	if len(sys.Latency) != 4 {
		t.Fatalf("nil latency not defaulted: %v", sys.Latency)
	}
	votes[0] = 99
	if sys.Votes[0] != 3 {
		t.Fatal("votes aliased, not copied")
	}
	// Even T: q_r=2, q_w=3 for T=4.
	sys, err = MajoritySystem([]int{1, 1, 1, 1}, []float64{1, 1, 1, 1}, []float64{1, 1, 1, 1}, []float64{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sys.QR != 2 || sys.QW != 3 {
		t.Fatalf("thresholds (%d, %d), want (2, 3)", sys.QR, sys.QW)
	}
	// Error paths: degenerate totals and malformed capacities.
	if _, err := MajoritySystem([]int{1}, []float64{1}, []float64{1}, nil); err == nil {
		t.Fatal("T=1 accepted")
	}
	if _, err := MajoritySystem([]int{0, 0}, nil, nil, nil); err == nil {
		t.Fatal("T=0 accepted")
	}
	if _, err := MajoritySystem([]int{1, 1}, []float64{1}, []float64{1, 1}, nil); err == nil {
		t.Fatal("capacity length mismatch accepted")
	}
	if _, err := MajoritySystem([]int{1, 1}, []float64{1, -1}, []float64{1, 1}, nil); err == nil {
		t.Fatal("negative capacity accepted")
	}
}
