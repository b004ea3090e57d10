package strategy

import (
	"math"
	"strings"
	"testing"

	"quorumkit/internal/rng"
)

const certTol = 1e-9

// denseRow is one constraint of a test LP with every coefficient written out.
type denseRow struct {
	coef  []float64
	sense RowSense
	rhs   float64
}

// sparseLP is how every test states an LP by hand: full rows, stored as
// the column-sparse LP the solver takes, zeros dropped.
func sparseLP(cost []float64, rows []denseRow) LP {
	lp := LP{NumVars: len(cost), Cost: cost, ColStart: []int{0}}
	for _, r := range rows {
		lp.Rows = append(lp.Rows, Row{Sense: r.sense, RHS: r.rhs})
	}
	for j := range cost {
		for i, r := range rows {
			if c := r.coef[j]; c != 0 {
				lp.ColRow, lp.ColVal = append(lp.ColRow, i), append(lp.ColVal, c)
			}
		}
		lp.endColumn()
	}
	return lp
}

// solveChecked solves and certifies in one step; every status must carry a
// valid certificate.
func solveChecked(t *testing.T, lp LP) Solution {
	t.Helper()
	sol, err := Solve(lp)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status == StatusIterLimit {
		t.Fatalf("hit iteration limit after %d pivots", sol.Pivots)
	}
	if err := CheckSolution(lp, sol, certTol); err != nil {
		t.Fatalf("certificate for %v rejected: %v", sol.Status, err)
	}
	return sol
}

func TestSimplexBasicOptimal(t *testing.T) {
	// min -x - 2y s.t. x + y ≤ 4, x ≤ 3, y ≤ 2 → (2, 2), obj -6.
	lp := sparseLP([]float64{-1, -2}, []denseRow{
		{[]float64{1, 1}, LE, 4},
		{[]float64{1, 0}, LE, 3},
		{[]float64{0, 1}, LE, 2},
	})
	sol := solveChecked(t, lp)
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Obj+6) > 1e-9 || math.Abs(sol.X[0]-2) > 1e-9 || math.Abs(sol.X[1]-2) > 1e-9 {
		t.Fatalf("got x=%v obj=%g, want (2,2) obj -6", sol.X, sol.Obj)
	}
}

func TestSimplexEqualityAndGE(t *testing.T) {
	// min 2x + 3y s.t. x + y = 10, x ≥ 2, y ≥ 3 → (7, 3), obj 23.
	lp := sparseLP([]float64{2, 3}, []denseRow{
		{[]float64{1, 1}, EQ, 10},
		{[]float64{1, 0}, GE, 2},
		{[]float64{0, 1}, GE, 3},
	})
	sol := solveChecked(t, lp)
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Obj-23) > 1e-9 {
		t.Fatalf("obj %g, want 23", sol.Obj)
	}
}

func TestSimplexNegativeRHS(t *testing.T) {
	// Rows with negative RHS exercise the row-flip path.
	// min x + y s.t. -x - y ≤ -5 (i.e. x + y ≥ 5) → obj 5.
	lp := sparseLP([]float64{1, 1}, []denseRow{
		{[]float64{-1, -1}, LE, -5},
	})
	sol := solveChecked(t, lp)
	if sol.Status != StatusOptimal || math.Abs(sol.Obj-5) > 1e-9 {
		t.Fatalf("status %v obj %g, want optimal 5", sol.Status, sol.Obj)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	// x ≥ 3 and x ≤ 1 cannot both hold.
	lp := sparseLP([]float64{1}, []denseRow{
		{[]float64{1}, GE, 3},
		{[]float64{1}, LE, 1},
	})
	sol := solveChecked(t, lp)
	if sol.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

func TestSimplexInfeasibleEquality(t *testing.T) {
	// x + y = 1 and x + y = 2 with x, y ≥ 0.
	lp := sparseLP([]float64{0, 0}, []denseRow{
		{[]float64{1, 1}, EQ, 1},
		{[]float64{1, 1}, EQ, 2},
	})
	sol := solveChecked(t, lp)
	if sol.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	// min -x s.t. x - y ≤ 1: push x with y along the ray (1,1).
	lp := sparseLP([]float64{-1, 0}, []denseRow{
		{[]float64{1, -1}, LE, 1},
	})
	sol := solveChecked(t, lp)
	if sol.Status != StatusUnbounded {
		t.Fatalf("status %v, want unbounded", sol.Status)
	}
}

func TestSimplexDegenerate(t *testing.T) {
	// A classically degenerate vertex (redundant constraints through the
	// optimum). The solver must terminate and certify.
	lp := sparseLP([]float64{-1, -1}, []denseRow{
		{[]float64{1, 0}, LE, 1},
		{[]float64{0, 1}, LE, 1},
		{[]float64{1, 1}, LE, 2},
		{[]float64{2, 1}, LE, 3},
		{[]float64{1, 2}, LE, 3},
	})
	sol := solveChecked(t, lp)
	if sol.Status != StatusOptimal || math.Abs(sol.Obj+2) > 1e-9 {
		t.Fatalf("status %v obj %g, want optimal -2", sol.Status, sol.Obj)
	}
}

func TestSimplexRedundantEquality(t *testing.T) {
	// Duplicated equality rows leave an artificial basic in a redundant
	// row; the solve must still certify.
	lp := sparseLP([]float64{1, 2}, []denseRow{
		{[]float64{1, 1}, EQ, 3},
		{[]float64{2, 2}, EQ, 6},
	})
	sol := solveChecked(t, lp)
	if sol.Status != StatusOptimal || math.Abs(sol.Obj-3) > 1e-9 {
		t.Fatalf("status %v obj %g, want optimal 3 at (3,0)", sol.Status, sol.Obj)
	}
}

// TestSimplexRejectsMalformed: Validate, and through it Solve and
// CheckSolution, refuses every malformed column-sparse LP with an error
// naming what is wrong.
func TestSimplexRejectsMalformed(t *testing.T) {
	// Three columns over two rows: rows {0, 1}, empty, {1}.
	valid := func() LP {
		return LP{NumVars: 3, Cost: []float64{1, 1, 1}, Rows: []Row{{LE, 1}, {GE, 0}},
			ColStart: []int{0, 2, 2, 3}, ColRow: []int{0, 1, 1}, ColVal: []float64{1, 2, 3}}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid LP rejected: %v", err)
	}
	cases := []struct {
		name, want string
		edit       func(*LP)
	}{
		{"no variables", "variables", func(lp *LP) { lp.NumVars = 0 }},
		{"no rows", "no rows", func(lp *LP) { lp.Rows = nil }},
		{"cost count", "costs", func(lp *LP) { lp.Cost = lp.Cost[:2] }},
		{"NaN cost", "cost", func(lp *LP) { lp.Cost[1] = math.NaN() }},
		{"NaN rhs", "rhs", func(lp *LP) { lp.Rows[0].RHS = math.NaN() }},
		{"unknown sense", "sense", func(lp *LP) { lp.Rows[1].Sense = RowSense(9) }},
		{"row out of range", "row 2", func(lp *LP) { lp.ColRow[2] = 2 }},
		{"negative row", "row -1", func(lp *LP) { lp.ColRow[0] = -1 }},
		{"unsorted rows", "row 0 after row 1", func(lp *LP) { lp.ColRow[0], lp.ColRow[1] = 1, 0 }},
		{"duplicate rows", "row 1 after row 1", func(lp *LP) { lp.ColRow[0] = 1 }},
		{"explicit zero", "coefficient 0", func(lp *LP) { lp.ColVal[1] = 0 }},
		{"NaN coefficient", "NaN", func(lp *LP) { lp.ColVal[0] = math.NaN() }},
		{"Inf coefficient", "Inf", func(lp *LP) { lp.ColVal[2] = math.Inf(-1) }},
		{"starts not monotone", "column 1 spans", func(lp *LP) { lp.ColStart[2] = 1 }},
		{"start past the nonzeros", "column 1 spans", func(lp *LP) { lp.ColStart[2] = 5 }},
		{"starts not from zero", "column starts", func(lp *LP) { lp.ColStart[0] = 1 }},
		{"too few starts", "column starts", func(lp *LP) { lp.ColStart = lp.ColStart[:3] }},
		{"too many starts", "column starts", func(lp *LP) { lp.ColStart = append(lp.ColStart, 3) }},
		{"last start short of the nonzeros", "column starts", func(lp *LP) { lp.ColStart[3] = 2 }},
		{"values short of rows", "column starts", func(lp *LP) { lp.ColVal = lp.ColVal[:2] }},
	}
	for _, c := range cases {
		lp := valid()
		c.edit(&lp)
		err := lp.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", c.name, err, c.want)
		}
		if _, err := Solve(lp); err == nil {
			t.Errorf("%s: Solve accepted the LP", c.name)
		}
		if err := CheckSolution(lp, Solution{Status: StatusOptimal, X: []float64{0, 0, 0}, Y: []float64{0, 0}}, certTol); err == nil {
			t.Errorf("%s: CheckSolution accepted the LP", c.name)
		}
	}
}

// TestCheckSolutionRejectsBadWitnesses: CheckSolution certifies the true
// optimum and nothing else. A witness holding an infinity or a NaN is
// refused whatever the arithmetic on it would say, as is one whose checks
// overflow: each would pass a check written "reject if bad > tol", since
// Inf·0 and Inf − Inf are NaN. Every finite way to get one condition wrong
// is refused too.
func TestCheckSolutionRejectsBadWitnesses(t *testing.T) {
	// min x s.t. x ≥ 1, 0·x ≤ 0: the optimum is x = 1 with duals (1, 0).
	lp := sparseLP([]float64{1}, []denseRow{{[]float64{1}, GE, 1}, {[]float64{0}, LE, 0}})
	// min 0 s.t. 2x − 2y ≥ 0: any x = y is optimal.
	wide := sparseLP([]float64{0, 0}, []denseRow{{[]float64{2, -2}, GE, 0}})
	inf, nan := math.Inf(1), math.NaN()
	optimal := func(x, obj float64, y ...float64) Solution {
		return Solution{Status: StatusOptimal, X: []float64{x}, Obj: obj, Y: y}
	}
	if err := CheckSolution(lp, optimal(1, 1, 1, 0), certTol); err != nil {
		t.Fatalf("true optimum rejected: %v", err)
	}
	cases := []struct {
		name string
		lp   LP
		sol  Solution
	}{
		{"5× the optimum with an infinite dual", lp, optimal(5, 5, 0, -inf)},
		{"infeasibility of a feasible LP", lp, Solution{Status: StatusInfeasible, Y: []float64{inf, -inf}}},
		{"NaN in X", lp, optimal(nan, 1, 1, 0)},
		{"NaN in Ray", lp, Solution{Status: StatusUnbounded, X: []float64{1}, Obj: 1, Ray: []float64{nan}}},
		{"infinite X", lp, optimal(inf, inf, 1, 0)},
		{"NaN objective", lp, optimal(1, nan, 1, 0)},
		{"activity overflows to Inf − Inf", wide,
			Solution{Status: StatusOptimal, X: []float64{1e308, 1e308}, Y: []float64{0}}},

		{"X too short", lp, Solution{Status: StatusOptimal, Obj: 1, Y: []float64{1, 0}}},
		{"negative X", lp, optimal(-1, -1, 1, 0)},
		{"row violated", lp, optimal(0.5, 0.5, 1, 0)},
		{"Y too short", lp, optimal(1, 1, 1)},
		{"dual of the wrong sign", lp, optimal(1, 1, 1, 1)},
		{"negative reduced cost", lp, optimal(1, 1, 2, 0)},
		{"x·rc ≠ 0", lp, optimal(2, 2, 0, 0)},
		{"y·slack ≠ 0", lp, optimal(2, 2, 1, 0)},
		{"wrong objective", lp, optimal(1, 2, 1, 0)},
		{"Farkas y of the wrong sign", lp, Solution{Status: StatusInfeasible, Y: []float64{-1, 0}}},
		{"Farkas y·A > 0", lp, Solution{Status: StatusInfeasible, Y: []float64{1, 0}}},
		{"Farkas y·b = 0", lp, Solution{Status: StatusInfeasible, Y: []float64{0, 0}}},
		{"unbounded from an infeasible X", lp, Solution{Status: StatusUnbounded, X: []float64{0}, Ray: []float64{1}}},
		{"ray too short", lp, Solution{Status: StatusUnbounded, X: []float64{1}, Obj: 1}},
		{"negative ray", lp, Solution{Status: StatusUnbounded, X: []float64{1}, Obj: 1, Ray: []float64{-1}}},
		{"ray that raises the cost", lp, Solution{Status: StatusUnbounded, X: []float64{1}, Obj: 1, Ray: []float64{1}}},
		{"ray that leaves a row", wide, Solution{Status: StatusUnbounded, X: []float64{0, 0}, Ray: []float64{0, 1}}},
		{"status with no certificate", lp, Solution{Status: StatusIterLimit}},
	}
	for _, c := range cases {
		if err := CheckSolution(c.lp, c.sol, certTol); err == nil {
			t.Errorf("%s: certified", c.name)
		}
	}
}

// TestSimplexRandomCertified cross-checks random LPs: every solve must
// terminate with a certificate that CheckSolution accepts.
func TestSimplexRandomCertified(t *testing.T) {
	src := rng.New(0xA11CE)
	statuses := map[Status]int{}
	for trial := 0; trial < 300; trial++ {
		nv := 1 + int(src.Uint64()%5)
		m := 1 + int(src.Uint64()%6)
		cost := make([]float64, nv)
		for j := range cost {
			cost[j] = math.Round((src.Float64()*8-4)*4) / 4
		}
		rows := make([]denseRow, m)
		for i := range rows {
			coef := make([]float64, nv)
			for j := range coef {
				coef[j] = math.Round((src.Float64()*6-3)*2) / 2
			}
			rows[i] = denseRow{coef, RowSense(src.Uint64() % 3), math.Round((src.Float64()*10-3)*2) / 2}
		}
		lp := sparseLP(cost, rows)
		sol, err := Solve(lp)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status == StatusIterLimit {
			t.Fatalf("trial %d: iteration limit", trial)
		}
		if err := CheckSolution(lp, sol, 1e-7); err != nil {
			t.Fatalf("trial %d: status %v rejected: %v\nLP: %+v", trial, sol.Status, err, lp)
		}
		statuses[sol.Status]++
	}
	// The generator must actually exercise all three terminal statuses.
	for _, st := range []Status{StatusOptimal, StatusInfeasible, StatusUnbounded} {
		if statuses[st] == 0 {
			t.Errorf("no %v outcomes among random trials", st)
		}
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{
		StatusOptimal:    "optimal",
		StatusInfeasible: "infeasible",
		StatusUnbounded:  "unbounded",
		StatusIterLimit:  "iteration-limit",
		Status(99):       "Status(99)",
	} {
		if got := st.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", st, got, want)
		}
	}
}

// FuzzSimplex feeds arbitrary small LPs (fuzzLP's: empty columns and
// all-zero rows included) to the solver and requires termination with a
// status whose certificate verifies. Certificates make the oracle trivial:
// whatever the solver claims, CheckSolution re-proves it or the fuzz fails.
func FuzzSimplex(f *testing.F) {
	f.Add(uint64(1), uint64(2), int64(100))
	f.Add(uint64(3), uint64(4), int64(-7))
	f.Add(uint64(5), uint64(1), int64(0))
	f.Fuzz(func(t *testing.T, a, b uint64, salt int64) {
		lp := fuzzLP(a, b, salt)
		sol, err := Solve(lp)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if sol.Status == StatusIterLimit {
			t.Fatalf("iteration limit on %d×%d LP", len(lp.Rows), lp.NumVars)
		}
		if err := CheckSolution(lp, sol, 1e-7); err != nil {
			t.Fatalf("status %v rejected: %v\nLP: %+v", sol.Status, err, lp)
		}
	})
}
