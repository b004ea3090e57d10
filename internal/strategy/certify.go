package strategy

import (
	"fmt"
	"math"
)

// Certification of solver output by direct arithmetic, independent of the
// tableau the solver actually worked on. The conventions for min c·x with
// x ≥ 0:
//
//   primal feasibility   each row holds within tol
//   dual sign pattern    LE rows y ≤ 0, GE rows y ≥ 0, EQ rows free
//   dual feasibility     reduced cost c_j − y·A_j ≥ 0 for every column
//   complementarity      x_j·(c_j − y·A_j) = 0 and y_i·(a_i·x − b_i) = 0
//   strong duality       c·x = y·b
//
// An infeasibility claim is checked as a Farkas certificate (y with the
// dual sign pattern, y·A ≤ 0 columnwise, y·b > 0), and an unboundedness
// claim as a feasible point plus a recession ray that strictly improves
// the objective. A Solution that passes CheckSolution is proved correct
// regardless of what the solver did internally.

// CheckSolution verifies a Solution against its LP within tolerance tol,
// in O(nnz + m + n). A nil return means the claimed status is certified.
// Every comparison is written so that a NaN fails it, and a witness with a
// non-finite entry is refused before any arithmetic: Inf·0 would otherwise
// turn a violated check into a NaN that passes.
func CheckSolution(lp LP, sol Solution, tol float64) error {
	if err := lp.Validate(); err != nil {
		return err
	}
	if !finite(sol.Obj) {
		return fmt.Errorf("strategy: objective %g is not finite", sol.Obj)
	}
	for _, w := range []struct {
		name string
		v    []float64
	}{{"x", sol.X}, {"y", sol.Y}, {"ray", sol.Ray}} {
		for i, v := range w.v {
			if !finite(v) {
				return fmt.Errorf("strategy: %s[%d] = %g is not finite", w.name, i, v)
			}
		}
	}
	switch sol.Status {
	case StatusOptimal:
		resid, err := checkPrimalFeasible(lp, sol.X, tol)
		if err != nil {
			return err
		}
		return checkDualOptimal(lp, sol, resid, tol)
	case StatusInfeasible:
		return checkFarkas(lp, sol.Y, tol)
	case StatusUnbounded:
		if _, err := checkPrimalFeasible(lp, sol.X, tol); err != nil {
			return fmt.Errorf("unbounded claim: %w", err)
		}
		return checkRay(lp, sol.Ray, tol)
	default:
		return fmt.Errorf("strategy: cannot certify status %v", sol.Status)
	}
}

// activity returns A·x − b per row when minusRHS is set, A·x otherwise,
// accumulated column by column over the nonzeros of x's support.
func activity(lp LP, x []float64, minusRHS bool) []float64 {
	a := make([]float64, len(lp.Rows))
	if minusRHS {
		for i, row := range lp.Rows {
			a[i] = -row.RHS
		}
	}
	for j, xj := range x {
		if xj == 0 {
			continue
		}
		rows, vals := lp.col(j)
		for p, i := range rows {
			a[i] += vals[p] * xj
		}
	}
	return a
}

// checkSenses verifies that each row's residual respects its sense within
// tol.
func checkSenses(lp LP, resid []float64, tol float64, what string) error {
	for i, row := range lp.Rows {
		r, ok := resid[i], false
		switch row.Sense {
		case LE:
			ok = r <= tol
		case GE:
			ok = r >= -tol
		case EQ:
			ok = math.Abs(r) <= tol
		}
		if !ok {
			return fmt.Errorf("strategy: %s row %d (%s) by %g", what, i, [...]string{"≤", "≥", "="}[row.Sense], r)
		}
	}
	return nil
}

// checkDualSigns verifies the dual sign pattern: y ≤ 0 on LE rows, y ≥ 0
// on GE rows, within tol.
func checkDualSigns(lp LP, y []float64, tol float64, what string) error {
	if len(y) != len(lp.Rows) {
		return fmt.Errorf("strategy: %s has %d values for %d rows", what, len(y), len(lp.Rows))
	}
	for i, row := range lp.Rows {
		if (row.Sense == LE && !(y[i] <= tol)) || (row.Sense == GE && !(y[i] >= -tol)) {
			return fmt.Errorf("strategy: %s y[%d] = %g has the wrong sign for its row", what, i, y[i])
		}
	}
	return nil
}

func checkNonnegative(v []float64, n int, tol float64, what string) error {
	if len(v) != n {
		return fmt.Errorf("strategy: %s has %d values for %d variables", what, len(v), n)
	}
	for j, x := range v {
		if !(x >= -tol) {
			return fmt.Errorf("strategy: %s[%d] = %g violates nonnegativity", what, j, x)
		}
	}
	return nil
}

// checkPrimalFeasible verifies x ≥ 0 and every row within tol, and returns
// the row residuals A·x − b.
func checkPrimalFeasible(lp LP, x []float64, tol float64) ([]float64, error) {
	if err := checkNonnegative(x, lp.NumVars, tol, "x"); err != nil {
		return nil, err
	}
	resid := activity(lp, x, true)
	return resid, checkSenses(lp, resid, tol, "primal violates")
}

// checkDualOptimal verifies the duals of a primal-feasible x with row
// residuals resid.
func checkDualOptimal(lp LP, sol Solution, resid []float64, tol float64) error {
	y := sol.Y
	if err := checkDualSigns(lp, y, tol, "dual"); err != nil {
		return err
	}
	// Reduced costs and complementary slackness, column by column.
	primalObj := 0.0
	for j, c := range lp.Cost {
		rc := c
		rows, vals := lp.col(j)
		for p, i := range rows {
			rc -= y[i] * vals[p]
		}
		if !(rc >= -tol) {
			return fmt.Errorf("strategy: column %d has reduced cost %g < 0", j, rc)
		}
		if s := sol.X[j] * rc; !(math.Abs(s) <= tol) {
			return fmt.Errorf("strategy: complementary slackness x[%d]·rc = %g", j, s)
		}
		primalObj += c * sol.X[j]
	}
	dualObj := 0.0
	for i, r := range resid {
		if s := y[i] * r; !(math.Abs(s) <= tol) {
			return fmt.Errorf("strategy: complementary slackness y[%d]·slack = %g", i, s)
		}
		dualObj += y[i] * lp.Rows[i].RHS
	}
	if !(math.Abs(primalObj-sol.Obj) <= tol) {
		return fmt.Errorf("strategy: reported objective %g but c·x = %g", sol.Obj, primalObj)
	}
	if !(math.Abs(primalObj-dualObj) <= tol) {
		return fmt.Errorf("strategy: duality gap %g (primal %g, dual %g)",
			primalObj-dualObj, primalObj, dualObj)
	}
	return nil
}

// checkFarkas verifies an infeasibility witness: with the dual sign
// pattern, any feasible x would force y·(Ax) ≥ y·b > 0, but y·A ≤ 0
// columnwise and x ≥ 0 force y·(Ax) ≤ 0.
func checkFarkas(lp LP, y []float64, tol float64) error {
	if err := checkDualSigns(lp, y, tol, "Farkas witness"); err != nil {
		return err
	}
	for j := 0; j < lp.NumVars; j++ {
		ya := 0.0
		rows, vals := lp.col(j)
		for p, i := range rows {
			ya += y[i] * vals[p]
		}
		if !(ya <= tol) {
			return fmt.Errorf("strategy: Farkas y·A[%d] = %g > 0", j, ya)
		}
	}
	yb := 0.0
	for i, row := range lp.Rows {
		yb += y[i] * row.RHS
	}
	if !(yb > tol) {
		return fmt.Errorf("strategy: Farkas y·b = %g not positive", yb)
	}
	return nil
}

// checkRay verifies an unboundedness witness: a nonnegative recession
// direction that keeps every row feasible and strictly decreases the cost.
func checkRay(lp LP, d []float64, tol float64) error {
	if err := checkNonnegative(d, lp.NumVars, tol, "ray"); err != nil {
		return err
	}
	if err := checkSenses(lp, activity(lp, d, false), tol, "ray drifts out of"); err != nil {
		return err
	}
	cd := 0.0
	for j, c := range lp.Cost {
		cd += c * d[j]
	}
	if !(cd < -tol) {
		return fmt.Errorf("strategy: ray has cost direction %g, not strictly negative", cd)
	}
	return nil
}
