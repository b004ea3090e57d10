package core

import (
	"math"
	"testing"
	"testing/quick"

	"quorumkit/internal/dist"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
)

func mustModel(t *testing.T, r, w dist.PMF) Model {
	t.Helper()
	m, err := ModelFromRW(r, w)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelHandComputed(t *testing.T) {
	// T = 4; r = w concentrated for easy hand computation.
	f := dist.PMF{0.1, 0.1, 0.2, 0.3, 0.3}
	m := mustModel(t, f, f)
	if m.T != 4 || m.MaxReadQuorum() != 2 {
		t.Fatalf("T=%d max=%d", m.T, m.MaxReadQuorum())
	}
	// R(1) = 0.9, R(2) = 0.8; W(4) = 0.3, W(3) = 0.6.
	if got := m.ReadAvail(1); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("R(1)=%g", got)
	}
	if got := m.ReadAvail(2); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("R(2)=%g", got)
	}
	if got := m.WriteAvail(4); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("W(4)=%g", got)
	}
	// A(0.5, 1) = 0.5·0.9 + 0.5·W(4) = 0.45 + 0.15 = 0.6
	if got := m.Availability(0.5, 1); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("A(.5,1)=%g", got)
	}
	// A(0.5, 2) = 0.5·0.8 + 0.5·W(3) = 0.4 + 0.3 = 0.7
	if got := m.Availability(0.5, 2); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("A(.5,2)=%g", got)
	}
	res := m.Optimize(0.5)
	if res.Assignment.QR != 2 || math.Abs(res.Availability-0.7) > 1e-12 {
		t.Fatalf("optimize: %+v", res)
	}
	if res.Assignment.QW != 3 {
		t.Fatalf("q_w = %d", res.Assignment.QW)
	}
}

func TestNewModelMixture(t *testing.T) {
	// Two sites with different densities; uniform access weights.
	f0 := dist.PMF{0, 1, 0}
	f1 := dist.PMF{0, 0, 1}
	m, err := NewModel(nil, nil, []dist.PMF{f0, f1})
	if err != nil {
		t.Fatal(err)
	}
	// r(1) = r(2) = 0.5.
	if got := m.ReadAvail(2); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("R(2)=%g", got)
	}
	// Skewed read weights.
	m2, err := NewModel([]float64{0.9, 0.1}, []float64{0.1, 0.9}, []dist.PMF{f0, f1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.ReadAvail(2); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("skewed R(2)=%g", got)
	}
	if got := m2.WriteAvail(2); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("skewed W(2)=%g", got)
	}
}

func TestNewModelErrors(t *testing.T) {
	if _, err := NewModel(nil, nil, nil); err == nil {
		t.Fatal("no densities should fail")
	}
	f := dist.PMF{0.5, 0.5}
	if _, err := NewModel([]float64{1, 0}, nil, []dist.PMF{f}); err == nil {
		t.Fatal("weight length mismatch should fail")
	}
	bad := dist.PMF{0.5, 0.4}
	if _, err := NewModel(nil, nil, []dist.PMF{bad}); err == nil {
		t.Fatal("non-normalized density should fail")
	}
	if _, err := ModelFromRW(dist.PMF{1}, dist.PMF{1}); err == nil {
		t.Fatal("length-1 density should fail")
	}
	if _, err := ModelFromRW(dist.PMF{0.5, 0.5}, dist.PMF{0.3, 0.3, 0.4}); err == nil {
		t.Fatal("mismatched lengths should fail")
	}
}

func TestTailMonotonicity(t *testing.T) {
	f := dist.Complete(21, 0.9, 0.8)
	m := mustModel(t, f, f)
	for qr := 2; qr <= m.MaxReadQuorum(); qr++ {
		if m.ReadAvail(qr) > m.ReadAvail(qr-1)+1e-12 {
			t.Fatalf("ReadAvail increased at %d", qr)
		}
		if m.WriteAvailForReadQuorum(qr) < m.WriteAvailForReadQuorum(qr-1)-1e-12 {
			t.Fatalf("WriteAvail decreased at %d", qr)
		}
	}
}

// TestEndpointIdentity verifies the paper's §5.3 observation: at q_r = 1 a
// read succeeds exactly when the submitting site is up, so A(α,1) has read
// part α·p regardless of topology.
func TestEndpointIdentity(t *testing.T) {
	const p, r = 0.96, 0.96
	for name, f := range map[string]dist.PMF{
		"ring":     dist.Ring(101, p, r),
		"complete": dist.Complete(101, p, r),
		"busA":     dist.BusKillsSites(101, p, r),
	} {
		m := mustModel(t, f, f)
		// Read part at q_r = 1 is P[v ≥ 1] = p for ring/complete; for the
		// kills-sites bus it is rp (the site needs the bus to form a
		// component including itself... actually f(v≥1) requires bus up).
		got := m.ReadAvail(1)
		want := p
		if name == "busA" {
			want = p * r
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: R(1) = %g, want %g", name, got, want)
		}
		// A(1, q_r=1) = R(1): pure reads.
		if a := m.Availability(1, 1); math.Abs(a-got) > 1e-12 {
			t.Fatalf("%s: A(1,1)=%g vs R(1)=%g", name, a, got)
		}
		// A(0, q_r) ignores reads entirely.
		if a := m.Availability(0, 5); math.Abs(a-m.WriteAvailForReadQuorum(5)) > 1e-12 {
			t.Fatalf("%s: A(0,5) wrong", name)
		}
	}
}

func TestCurve(t *testing.T) {
	f := dist.Ring(11, 0.9, 0.9)
	m := mustModel(t, f, f)
	c := m.Curve(0.5)
	if len(c) != 5 {
		t.Fatalf("curve length %d", len(c))
	}
	for i, a := range c {
		if math.Abs(a-m.Availability(0.5, i+1)) > 1e-12 {
			t.Fatalf("curve[%d] mismatch", i)
		}
	}
}

func TestAlphaValidation(t *testing.T) {
	f := dist.PMF{0.5, 0.5}
	m := mustModel(t, f, f)
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("α=%g should panic", bad)
				}
			}()
			m.Availability(bad, 1)
		}()
	}
}

func TestWeightedAvailability(t *testing.T) {
	f := dist.PMF{0.1, 0.2, 0.3, 0.2, 0.2}
	m := mustModel(t, f, f)
	for qr := 1; qr <= 2; qr++ {
		if math.Abs(m.WeightedAvailability(1, 0.5, qr)-m.Availability(0.5, qr)) > 1e-12 {
			t.Fatal("ω=1 must equal plain availability")
		}
		if math.Abs(m.WeightedAvailability(0, 0.5, qr)-0.5*m.ReadAvail(qr)) > 1e-12 {
			t.Fatal("ω=0 must drop the write term")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative ω should panic")
		}
	}()
	m.WeightedAvailability(-1, 0.5, 1)
}

func TestOptimizeWeighted(t *testing.T) {
	f := dist.Ring(21, 0.9, 0.9)
	m := mustModel(t, f, f)
	const alpha = 0.75
	// ω = 1 must agree with the plain optimizer.
	plain := m.Optimize(alpha)
	w1 := m.OptimizeWeighted(1, alpha)
	if plain.Assignment != w1.Assignment || math.Abs(plain.Availability-w1.Availability) > 1e-12 {
		t.Fatalf("ω=1 diverges: %v vs %v", w1, plain)
	}
	// Large ω emphasizes writes: the optimum moves toward larger q_r
	// (easier write quorums), weakly monotone in ω.
	prevQR := 0
	for _, omega := range []float64{0.5, 1, 4, 16} {
		res := m.OptimizeWeighted(omega, alpha)
		if res.Assignment.QR < prevQR {
			t.Fatalf("ω=%g: q_r %d regressed below %d", omega, res.Assignment.QR, prevQR)
		}
		prevQR = res.Assignment.QR
		if err := res.Assignment.Validate(m.T); err != nil {
			t.Fatal(err)
		}
	}
	// With ω huge the write term dominates and the optimum is majority.
	heavy := m.OptimizeWeighted(1000, alpha)
	if heavy.Assignment.QR != m.MaxReadQuorum() {
		t.Fatalf("ω=1000 optimum q_r=%d, want %d", heavy.Assignment.QR, m.MaxReadQuorum())
	}
}

func TestOptimizeTieBreaksLow(t *testing.T) {
	// Flat availability: every q_r ties; expect q_r = 1.
	f := make(dist.PMF, 12)
	f[11] = 1 // always fully connected
	m := mustModel(t, f, f)
	res := m.Optimize(0.5)
	if res.Assignment.QR != 1 {
		t.Fatalf("tie should pick q_r=1, got %d", res.Assignment.QR)
	}
	if math.Abs(res.Availability-1) > 1e-12 {
		t.Fatalf("availability %g", res.Availability)
	}
}

func TestOptimizeMatchesCurveMax(t *testing.T) {
	src := rng.New(99)
	for trial := 0; trial < 200; trial++ {
		T := 3 + src.Intn(40)
		r := randomPMF(src, T+1)
		w := randomPMF(src, T+1)
		m := mustModel(t, r, w)
		alpha := src.Float64()
		res := m.Optimize(alpha)
		best := math.Inf(-1)
		for qr := 1; qr <= m.MaxReadQuorum(); qr++ {
			if a := m.Availability(alpha, qr); a > best {
				best = a
			}
		}
		if math.Abs(res.Availability-best) > 1e-12 {
			t.Fatalf("trial %d: exhaustive missed the max", trial)
		}
	}
}

// TestOptimizersMatchCurveScan: the three exhaustive optimizers return the
// first maximum of the curve — the same q_r, availability bits and
// evaluation count as a scan written out over m.Curve(α) — on random models
// whose densities are half zeros, so equal tail sums plant exact ties; and
// none of them allocates.
func TestOptimizersMatchCurveScan(t *testing.T) {
	scan := func(curve []float64, lo int) Result {
		want := Result{Assignment: quorum.Assignment{QR: lo}, Availability: math.Inf(-1), Evaluations: len(curve) - lo + 1}
		for qr := lo; qr <= len(curve); qr++ {
			if curve[qr-1] > want.Availability {
				want.Assignment.QR, want.Availability = qr, curve[qr-1]
			}
		}
		return want
	}
	check := func(name string, m Model, got, want Result) {
		t.Helper()
		want.Assignment.QW = m.T - want.Assignment.QR + 1
		if got != want {
			t.Fatalf("%s: %+v, curve scan %+v", name, got, want)
		}
	}
	src := rng.New(2718)
	ties := 0
	for trial := 0; trial < 300; trial++ {
		T := 2 + src.Intn(30)
		r, w := sparsePMF(src, T+1), sparsePMF(src, T+1)
		m := mustModel(t, r, w)
		alpha := []float64{0, 0.5, 1, src.Float64()}[trial%4]
		const omega = 2.5
		curve := m.Curve(alpha)
		want := scan(curve, 1)
		check("Optimize", m, m.Optimize(alpha), want)
		for i, a := range curve {
			if a == want.Availability && i+1 != want.Assignment.QR {
				ties++
				break
			}
		}
		weighted := make([]float64, len(curve))
		for i := range weighted {
			weighted[i] = m.WeightedAvailability(omega, alpha, i+1)
		}
		check("OptimizeWeighted", m, m.OptimizeWeighted(omega, alpha), scan(weighted, 1))
		floor := m.Availability(0, m.MaxReadQuorum()) / 2
		con, err := m.OptimizeConstrained(alpha, floor)
		if err != nil {
			t.Fatal(err)
		}
		qmin, _ := m.MinReadQuorumForWrite(floor)
		check("OptimizeConstrained", m, con, scan(curve, qmin))
		if n := testing.AllocsPerRun(5, func() {
			m.Optimize(alpha)
			m.OptimizeWeighted(omega, alpha)
			m.OptimizeConstrained(alpha, floor)
		}); n != 0 {
			t.Fatalf("the exhaustive optimizers allocate %.0f objects", n)
		}
	}
	if ties == 0 {
		t.Fatal("no trial planted a tie at the maximum")
	}
	t.Logf("%d of 300 trials tie at the maximum", ties)
}

// sparsePMF is randomPMF with about half its entries zeroed, so runs of
// equal tail sums occur.
func sparsePMF(src *rng.Source, n int) dist.PMF {
	p := make(dist.PMF, n)
	p[n-1] = 1
	for i := range p {
		if src.Intn(2) == 0 {
			p[i] = src.Float64()
		}
	}
	return p.Normalize()
}

func randomPMF(src *rng.Source, n int) dist.PMF {
	p := make(dist.PMF, n)
	for i := range p {
		p[i] = src.Float64()
	}
	return p.Normalize()
}

func TestGoldenAndParabolicOnPaperModels(t *testing.T) {
	// On the models the paper actually optimizes (ring/complete families,
	// all α levels), the cheap searches must agree with exhaustive search.
	densities := []dist.PMF{
		dist.Ring(101, 0.96, 0.96),
		dist.Complete(101, 0.96, 0.96),
		dist.Ring(31, 0.9, 0.8),
		dist.Complete(31, 0.8, 0.9),
		dist.BusKillsSites(51, 0.96, 0.96),
		dist.BusIndependentSites(51, 0.96, 0.96),
	}
	for di, f := range densities {
		m := mustModel(t, f, f)
		for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
			ref := m.Optimize(alpha)
			g := m.OptimizeGolden(alpha)
			p := m.OptimizeParabolic(alpha)
			if math.Abs(g.Availability-ref.Availability) > 1e-12 {
				t.Fatalf("density %d α=%g: golden %v vs exhaustive %v", di, alpha, g, ref)
			}
			if math.Abs(p.Availability-ref.Availability) > 1e-12 {
				t.Fatalf("density %d α=%g: parabolic %v vs exhaustive %v", di, alpha, p, ref)
			}
		}
	}
}

func TestGoldenNeverBelowEndpoints(t *testing.T) {
	src := rng.New(4242)
	for trial := 0; trial < 300; trial++ {
		T := 3 + src.Intn(60)
		m := mustModel(t, randomPMF(src, T+1), randomPMF(src, T+1))
		alpha := src.Float64()
		ref := m.Optimize(alpha)
		for _, res := range []Result{m.OptimizeGolden(alpha), m.OptimizeParabolic(alpha)} {
			lo := m.Availability(alpha, 1)
			hi := m.Availability(alpha, m.MaxReadQuorum())
			if res.Availability+1e-12 < math.Max(lo, hi) {
				t.Fatalf("trial %d: search below endpoint values", trial)
			}
			if res.Availability > ref.Availability+1e-12 {
				t.Fatalf("trial %d: search above exhaustive max", trial)
			}
			if err := res.Assignment.Validate(m.T); err != nil {
				t.Fatalf("trial %d: invalid assignment: %v", trial, err)
			}
			// The reported availability must match the reported assignment.
			if math.Abs(m.Availability(alpha, res.Assignment.QR)-res.Availability) > 1e-12 {
				t.Fatalf("trial %d: reported availability inconsistent", trial)
			}
		}
	}
}

func TestGoldenUsesFewerEvaluations(t *testing.T) {
	f := dist.Complete(101, 0.96, 0.96)
	m := mustModel(t, f, f)
	ref := m.Optimize(0.75)
	g := m.OptimizeGolden(0.75)
	if g.Evaluations >= ref.Evaluations {
		t.Fatalf("golden used %d evaluations, exhaustive %d", g.Evaluations, ref.Evaluations)
	}
}

// TestParabolicIsDeterministic: on the complete model's plateau many probes
// tie, and the search must take the same path — the same evaluation count —
// on every call.
func TestParabolicIsDeterministic(t *testing.T) {
	f := dist.Complete(101, 0.96, 0.96)
	m := mustModel(t, f, f)
	want := m.OptimizeParabolic(0.75)
	for i := 0; i < 100; i++ {
		if got := m.OptimizeParabolic(0.75); got != want {
			t.Fatalf("call %d: %+v, first call %+v", i, got, want)
		}
	}
}

func TestMinReadQuorumForWrite(t *testing.T) {
	f := dist.Complete(101, 0.96, 0.96)
	m := mustModel(t, f, f)
	// Brute-force reference.
	for _, target := range []float64{0, 0.05, 0.2, 0.5} {
		got, err := m.MinReadQuorumForWrite(target)
		if err != nil {
			t.Fatalf("target %g: %v", target, err)
		}
		want := -1
		for qr := 1; qr <= m.MaxReadQuorum(); qr++ {
			if m.Availability(0, qr) >= target {
				want = qr
				break
			}
		}
		if got != want {
			t.Fatalf("target %g: got q_min=%d, want %d", target, got, want)
		}
	}
	// Unreachable constraint.
	if _, err := m.MinReadQuorumForWrite(0.9999); err == nil {
		t.Fatal("impossible write constraint should error")
	}
	if _, err := m.MinReadQuorumForWrite(-0.1); err == nil {
		t.Fatal("negative constraint should error")
	}
}

func TestOptimizeConstrained(t *testing.T) {
	f := dist.Complete(101, 0.96, 0.96)
	m := mustModel(t, f, f)
	const alpha = 0.75
	un := m.Optimize(alpha)
	con, err := m.OptimizeConstrained(alpha, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if con.Availability > un.Availability+1e-12 {
		t.Fatal("constrained optimum exceeds unconstrained")
	}
	if m.Availability(0, con.Assignment.QR) < 0.20 {
		t.Fatalf("constraint violated: write avail %g", m.Availability(0, con.Assignment.QR))
	}
	if _, err := m.OptimizeConstrained(alpha, 1.1); err == nil {
		t.Fatal("constraint > 1 should error")
	}
}

// TestQuickConstrainedRespectsConstraint: for random models and feasible
// targets, the constrained optimum always satisfies the write floor and is
// the best among feasible assignments.
func TestQuickConstrainedRespectsConstraint(t *testing.T) {
	src := rng.New(31415)
	f := func(tRaw uint8, alphaRaw, targetRaw uint16) bool {
		T := int(tRaw%50) + 3
		m := mustModel(t, randomPMF(src, T+1), randomPMF(src, T+1))
		alpha := float64(alphaRaw) / 65535
		maxW := m.Availability(0, m.MaxReadQuorum())
		target := float64(targetRaw) / 65535 * maxW
		res, err := m.OptimizeConstrained(alpha, target)
		if err != nil {
			return false
		}
		if m.Availability(0, res.Assignment.QR) < target {
			return false
		}
		best := math.Inf(-1)
		for qr := 1; qr <= m.MaxReadQuorum(); qr++ {
			if m.Availability(0, qr) >= target {
				if a := m.Availability(alpha, qr); a > best {
					best = a
				}
			}
		}
		return math.Abs(best-res.Availability) <= 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOptimizeExhaustive(b *testing.B) {
	f := dist.Complete(101, 0.96, 0.96)
	m, _ := ModelFromSingleDensity(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Optimize(0.75)
	}
}

func BenchmarkOptimizeGolden(b *testing.B) {
	f := dist.Complete(101, 0.96, 0.96)
	m, _ := ModelFromSingleDensity(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.OptimizeGolden(0.75)
	}
}

func TestAvailabilityForArbitraryAssignment(t *testing.T) {
	f := dist.PMF{0.1, 0.1, 0.2, 0.3, 0.3}
	m := mustModel(t, f, f)
	// An off-family pair (q_r=2, q_w=4): α·R(2) + (1−α)·W(4).
	a := quorum.Assignment{QR: 2, QW: 4}
	got := m.AvailabilityFor(0.5, a)
	want := 0.5*m.ReadAvail(2) + 0.5*m.WriteAvail(4)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("AvailabilityFor = %g, want %g", got, want)
	}
}
