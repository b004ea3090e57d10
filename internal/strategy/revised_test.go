package strategy

import (
	"math"
	"slices"
	"sort"
	"testing"

	"quorumkit/internal/rng"
)

// White-box tests of the revised simplex core and the reusable pricing
// oracle: the invariants the certificates cannot see because they only
// ever inspect a finished Solution.

// fuzzLP is FuzzSimplex's generator, so the invariant tests walk the same
// small half-integer LPs (degenerate, infeasible and unbounded included)
// the fuzzer does.
func fuzzLP(a, b uint64, salt int64) LP {
	src := rng.New(a ^ b<<17 ^ uint64(salt))
	nv := 1 + int(a%4)
	m := 1 + int(b%5)
	lp := LP{NumVars: nv, Cost: make([]float64, nv), Rows: make([]Row, m)}
	for j := range lp.Cost {
		lp.Cost[j] = math.Round((src.Float64()*10-5)*4) / 4
	}
	for i := range lp.Rows {
		coef := make([]float64, nv)
		for j := range coef {
			coef[j] = math.Round((src.Float64()*6-3)*2) / 2
		}
		lp.Rows[i] = Row{
			Coef:  coef,
			Sense: RowSense(src.Uint64() % 3),
			RHS:   math.Round((src.Float64()*12-4)*2) / 2,
		}
	}
	return lp
}

// checkBasis asserts B⁻¹·B = I and b = B⁻¹·rhs to 1e-9, with B rebuilt
// from the original sparse columns of the current basis.
func checkBasis(t *testing.T, s *simplex, lp LP) {
	t.Helper()
	m := s.m
	for c, bj := range s.basis {
		if !s.basic[bj] {
			t.Fatalf("basis[%d] = %d not flagged basic", c, bj)
		}
		for i := 0; i < m; i++ { // (B⁻¹·B)_ic = Σ_k (B⁻¹)_ik · B_kc
			got := 0.0
			for p := s.colPtr[bj]; p < s.colPtr[bj+1]; p++ {
				got += s.binv[s.colRow[p]*m+i] * s.colVal[p]
			}
			want := 0.0
			if i == c {
				want = 1
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("(B⁻¹B)[%d][%d] = %g after %d pivots", i, c, got, s.pivots)
			}
		}
	}
	for i := 0; i < m; i++ {
		want := 0.0
		for k, r := range lp.Rows {
			want += s.binv[k*m+i] * s.rowMult[k] * r.RHS
		}
		if math.Abs(s.b[i]-want) > 1e-9 {
			t.Fatalf("b[%d] = %g, B⁻¹·rhs = %g after %d pivots", i, s.b[i], want, s.pivots)
		}
	}
}

// stepChecked is iterate with the basis invariant checked after every pivot.
func stepChecked(t *testing.T, s *simplex, lp LP) {
	t.Helper()
	for {
		e, de := s.entering()
		if e < 0 {
			return
		}
		s.ftran(e)
		r := s.leaving()
		if r < 0 {
			return
		}
		s.pivot(r, e, de)
		checkBasis(t, s, lp)
	}
}

func TestRevisedBasisInvariant(t *testing.T) {
	pivots := 0
	for trial := 0; trial < 400; trial++ {
		lp := fuzzLP(uint64(trial), uint64(trial/4), int64(31*trial))
		s, err := newSimplex(lp)
		if err != nil {
			t.Fatal(err)
		}
		checkBasis(t, s, lp)
		s.beginPhase(true)
		stepChecked(t, s, lp)
		// phase1 proper finds nothing left to price and runs its feasibility
		// verdict and drive-out pivots.
		ok, _ := s.phase1()
		checkBasis(t, s, lp)
		if ok {
			s.beginPhase(false)
			stepChecked(t, s, lp)
		}
		pivots += s.pivots
		// The stepped solve lands where Solve does.
		want, err := Solve(lp)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (want.Status != StatusInfeasible) {
			t.Fatalf("trial %d: stepped feasibility %v, Solve says %v", trial, ok, want.Status)
		}
		if want.Status == StatusOptimal && math.Abs(s.objVal-want.Obj) > 1e-9 {
			t.Fatalf("trial %d: stepped objective %g, Solve %g", trial, s.objVal, want.Obj)
		}
	}
	if pivots < 400 {
		t.Fatalf("only %d pivots over 400 LPs: the generator is not exercising the core", pivots)
	}
}

// TestRevisedBlandRule pins the anti-cycling fallback, which ordinary solves
// almost never reach: pivoting by Bland's rule alone (re-armed before every
// pricing step, since strict progress drops back to Dantzig) terminates at
// the optimum Dantzig pricing finds, on the fuzz LPs and on a capacity LP
// with its 2+nJ degenerate load rows.
func TestRevisedBlandRule(t *testing.T) {
	blandSteps := func(s *simplex) bool {
		for {
			s.bland = true
			e, de := s.entering()
			if e < 0 {
				return true
			}
			s.ftran(e)
			r := s.leaving()
			if r < 0 {
				return false // unbounded
			}
			s.pivot(r, e, de)
			if s.pivots > 10000 {
				t.Fatalf("Bland's rule still pivoting after %d pivots", s.pivots)
			}
		}
	}
	bland := func(lp LP) (float64, bool) {
		s, err := newSimplex(lp)
		if err != nil {
			t.Fatal(err)
		}
		s.beginPhase(true)
		blandSteps(s)
		// phase1 proper has nothing left to price: it gives the feasibility
		// verdict and drives zero-valued artificials out.
		if ok, _ := s.phase1(); !ok {
			return 0, false
		}
		s.beginPhase(false)
		if !blandSteps(s) {
			return 0, false
		}
		checkBasis(t, s, lp)
		return s.objVal, true
	}
	lps := []LP{}
	for trial := 0; trial < 200; trial++ {
		lps = append(lps, fuzzLP(uint64(trial), uint64(trial/4), int64(17*trial)))
	}
	sys := uniformSystem(7, 77)
	reads, _ := MinimalQuorums(sys.Votes, sys.QR, 0)
	writes, _ := MinimalQuorums(sys.Votes, sys.QW, 0)
	lps = append(lps, buildCapacityLP(sys, SingleFr(0.6), reads, writes, capScale(sys)))
	optimal := 0
	for i, lp := range lps {
		want, err := Solve(lp)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := bland(lp)
		if ok != (want.Status == StatusOptimal) {
			t.Fatalf("LP %d: Bland optimal=%v, Solve says %v", i, ok, want.Status)
		}
		if ok {
			optimal++
			if math.Abs(got-want.Obj) > 1e-9 {
				t.Fatalf("LP %d: Bland objective %g, Solve %g", i, got, want.Obj)
			}
		}
	}
	if optimal < 40 {
		t.Fatalf("only %d optimal LPs exercised Bland's rule", optimal)
	}
}

// TestRevisedCrashInvariant: the crash basis of a capacity LP is a genuine
// basis (B⁻¹B = I, b = B⁻¹·rhs ≥ 0) with no artificial left in it, the
// invariant holds through every pivot from there, and the optimum agrees
// with a cold two-phase Solve.
func TestRevisedCrashInvariant(t *testing.T) {
	d, err := NewFrDist(map[float64]float64{0.8: 2, 0.5: 1, 0.2: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{5, 7, 9} {
		sys := uniformSystem(n, uint64(100+n))
		reads, _ := MinimalQuorums(sys.Votes, sys.QR, 0)
		writes, _ := MinimalQuorums(sys.Votes, sys.QW, 0)
		scale := capScale(sys)
		lp := buildCapacityLP(sys, d, reads, writes, scale)
		s, err := newSimplex(lp)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.crash(crashPlan(sys, d, reads, writes, scale)); err != nil {
			t.Fatal(err)
		}
		checkBasis(t, s, lp)
		for i, bj := range s.basis {
			if s.isArt(bj) {
				t.Fatalf("n=%d: artificial still basic in row %d after crash", n, i)
			}
			if s.b[i] < 0 {
				t.Fatalf("n=%d: crash left b[%d] = %g", n, i, s.b[i])
			}
		}
		// Step the solve from the crashed vertex (phase 1 has nothing to do),
		// checking the invariant through the degenerate load rows.
		before := s.pivots
		if ok, _ := s.phase1(); !ok || s.pivots != before {
			t.Fatalf("n=%d: phase 1 not a no-op after crash (ok=%v, %d pivots)", n, ok, s.pivots-before)
		}
		s.beginPhase(false)
		stepChecked(t, s, lp)
		if s.pivots-before < n {
			t.Fatalf("n=%d: only %d pivots from the crash basis", n, s.pivots-before)
		}
		got := s.solvePhase2()
		want := solveChecked(t, lp)
		if got.Status != StatusOptimal || math.Abs(got.Obj-want.Obj) > 1e-9 {
			t.Fatalf("n=%d: crashed solve %v obj %.12g, cold solve obj %.12g", n, got.Status, got.Obj, want.Obj)
		}
		if err := CheckSolution(lp, got, certTol); err != nil {
			t.Fatalf("n=%d: crashed solve certificate: %v", n, err)
		}
	}
	// A crash pivot on a structurally zero element is refused, as is one
	// outside the real columns.
	lp := LP{NumVars: 2, Cost: []float64{1, 1}, Rows: []Row{
		{Coef: []float64{1, 0}, Sense: EQ, RHS: 1},
		{Coef: []float64{0, 1}, Sense: EQ, RHS: 1},
	}}
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {2, 0}} {
		s, _ := newSimplex(lp)
		if err := s.crash([][2]int{pair}); err == nil {
			t.Errorf("crash pivot %v accepted", pair)
		}
	}
}

// TestRevisedWarmColumnsMatchCold: appending sparse columns to an optimal
// solver and resuming phase 2 reaches the objective of a cold solve of the
// widened LP.
func TestRevisedWarmColumnsMatchCold(t *testing.T) {
	d, err := NewFrDist(map[float64]float64{0.8: 2, 0.5: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{5, 7, 9} {
		sys := uniformSystem(n, uint64(200+n))
		reads, _ := MinimalQuorums(sys.Votes, sys.QR, 0)
		writes, _ := MinimalQuorums(sys.Votes, sys.QW, 0)
		scale := capScale(sys)
		hr, hw := len(reads)/3, len(writes)/3
		_, s, narrow, err := solveCapacityLP(sys, d, reads[:hr], writes[:hw], scale)
		if err != nil {
			t.Fatal(err)
		}
		add := func(side int, q Quorum, coef func(System, float64, float64, int) float64) int {
			rows, vals := []int{side}, []float64{1}
			for j, fr := range d.Fr {
				for _, x := range q {
					rows, vals = append(rows, loadRow(n, j, x)), append(vals, coef(sys, scale, fr, x))
				}
			}
			return s.addColumn(0, rows, vals)
		}
		var added []int
		for _, q := range reads[hr:] {
			added = append(added, add(0, q, readCoef))
		}
		for _, q := range writes[hw:] {
			added = append(added, add(1, q, writeCoef))
		}
		warm := s.solvePhase2()
		cold := solveChecked(t, buildCapacityLP(sys, d, reads, writes, scale))
		if warm.Status != StatusOptimal || math.Abs(warm.Obj-cold.Obj) > 1e-9 {
			t.Fatalf("n=%d: warm %v obj %.12g, cold obj %.12g", n, warm.Status, warm.Obj, cold.Obj)
		}
		if warm.Obj > narrow.Obj+1e-12 || warm.Pivots == narrow.Pivots {
			t.Fatalf("n=%d: widened optimum %.12g → %.12g in %d pivots: the new columns were not used",
				n, narrow.Obj, warm.Obj, warm.Pivots-narrow.Pivots)
		}
		// Each side's mass still sums to 1 across original and added columns.
		mass := 0.0
		for j := 0; j < hr+hw; j++ {
			mass += s.value(j)
		}
		for _, j := range added {
			mass += s.value(j)
		}
		if math.Abs(mass-2) > 1e-9 {
			t.Fatalf("n=%d: quorum mass %g after warm columns, want 2", n, mass)
		}
	}
}

// sortedResilientVotes is the definition resilientVotes must equal: sort
// the member votes descending and drop the first f.
func sortedResilientVotes(votes []int, set Quorum, f int) int {
	vs := make([]int, len(set))
	for i, x := range set {
		vs[i] = votes[x]
	}
	sort.Sort(sort.Reverse(sort.IntSlice(vs)))
	t := 0
	for i := f; i < len(vs); i++ {
		t += vs[i]
	}
	return t
}

// pricingCase draws a small vote assignment with ties and zeros, a
// resilience, a reachable-or-not threshold and a few cost vectors with
// ties and zeros.
func pricingCase(src *rng.Source) (votes []int, q, f int, costs [][]float64) {
	n := 3 + src.Intn(8)
	votes = make([]int, n)
	total := 0
	for i := range votes {
		votes[i] = src.Intn(4)
		total += votes[i]
	}
	f = src.Intn(3)
	q = 1 + src.Intn(total+1)
	for c := 0; c < 3; c++ {
		cost := make([]float64, n)
		for i := range cost {
			cost[i] = float64(src.Intn(6)) / 4 * float64(src.Intn(3))
		}
		costs = append(costs, cost)
	}
	return votes, q, f, costs
}

// TestPricerReuseAndOracle: a pricer reused across cost vectors answers
// exactly as a fresh one, and the answer is a minimal f-resilient quorum
// of brute-force-minimal cost.
func TestPricerReuseAndOracle(t *testing.T) {
	src := rng.New(0x9121CE)
	cases, feasible := 0, 0
	for cases < 360 {
		votes, q, f, costs := pricingCase(src)
		n := len(votes)
		reused := newPricer(votes, q, f)
		for _, cost := range costs {
			cases++
			set, total, ok := reused.price(cost)
			fset, ftotal, fok := newPricer(votes, q, f).price(cost)
			if ok != fok || total != ftotal || !slices.Equal(set, fset) {
				t.Fatalf("votes %v q=%d f=%d cost %v: reused (%v, %g, %v) ≠ fresh (%v, %g, %v)",
					votes, q, f, cost, set, total, ok, fset, ftotal, fok)
			}
			// Brute force over every subset.
			best, any := math.Inf(1), false
			for mask := 1; mask < 1<<n; mask++ {
				var sub Quorum
				c := 0.0
				for x := 0; x < n; x++ {
					if mask>>x&1 == 1 {
						sub = append(sub, x)
						c += cost[x]
					}
				}
				if got, want := resilientVotes(votes, sub, f), sortedResilientVotes(votes, sub, f); got != want {
					t.Fatalf("resilientVotes(%v, %v, %d) = %d, sorted definition %d", votes, sub, f, got, want)
				}
				if resilientVotes(votes, sub, f) >= q {
					any = true
					best = math.Min(best, c)
				}
			}
			if ok != any {
				t.Fatalf("votes %v q=%d f=%d: pricer ok=%v, brute force %v", votes, q, f, ok, any)
			}
			if !ok {
				continue
			}
			feasible++
			if math.Abs(total-best) > 1e-12 {
				t.Fatalf("votes %v q=%d f=%d cost %v: priced %v at %g, optimum %g", votes, q, f, cost, set, total, best)
			}
			if !sort.IntsAreSorted(set) || resilientVotes(votes, set, f) < q {
				t.Fatalf("votes %v q=%d f=%d: %v is not a sorted resilient quorum", votes, q, f, set)
			}
			for i := range set {
				sub := slices.Delete(slices.Clone(set), i, i+1)
				if resilientVotes(votes, sub, f) >= q {
					t.Fatalf("votes %v q=%d f=%d: %v is not minimal (drop %d)", votes, q, f, set, set[i])
				}
			}
		}
	}
	if feasible < 100 {
		t.Fatalf("only %d/%d cases feasible", feasible, cases)
	}
}

// TestPricerSteadyStateAllocs: once built, the oracle allocates nothing
// but the quorum it hands back.
func TestPricerSteadyStateAllocs(t *testing.T) {
	sys := uniformSystem(31, 3)
	for _, f := range []int{0, 1, 2} {
		p := newPricer(sys.Votes, sys.QR, f)
		cost := make([]float64, sys.N())
		for x := range cost {
			cost[x] = 1 / sys.ReadCap[x]
		}
		if _, _, ok := p.price(cost); !ok {
			t.Fatalf("f=%d: no quorum", f)
		}
		if a := testing.AllocsPerRun(50, func() { p.price(cost) }); a != 1 {
			t.Errorf("f=%d: price allocates %v objects per call, want 1 (the returned quorum)", f, a)
		}
	}
}
