package strategy

import (
	"fmt"
	"math"
)

// A pure-Go two-phase primal revised simplex with sparse columns. No
// external dependencies: the optimizers need exact control over determinism
// (golden fixtures), dual extraction (certificates) and warm starts (column
// generation), none of which an external solver binding would give us.
//
// The LP is stated in natural form — min c·x subject to rows of sense
// ≤ / = / ≥ with x ≥ 0 — and converted internally to standard form with
// slack and artificial columns. Every column keeps its original sparse form
// and is never updated; the only state a pivot touches is the explicit m×m
// B⁻¹, the basic values b and the duals y = c_B·B⁻¹, so a pivot costs
// O(m² + nnz priced) however many columns the LP has. Column i of B⁻¹ is
// the column the artificial of row i (originally e_i) would have in a full
// tableau, and c_art − y_i is that artificial's reduced cost, which gives
//
//   - dual values read directly off y, for optimality certificates and
//     (with the phase-1 costs loaded) Farkas witnesses, and
//   - warm-started column generation: a new column is appended in sparse
//     form and priced like any other, with no refactorization.
//
// Pricing is Dantzig's rule (most negative reduced cost) over a candidate
// list: the columns found attractive in the last full pass are re-priced
// against the fresh duals until none is, then a full pass refills the list.
// A run of degenerate pivots suggesting cycling switches to Bland's rule
// (smallest index entering over a full scan, smallest basic variable
// leaving on ties), which guarantees termination, until the objective next
// makes strict progress.

// RowSense is the comparison direction of an LP row.
type RowSense int8

// Row senses.
const (
	LE RowSense = iota // Σ coef·x ≤ rhs
	GE                 // Σ coef·x ≥ rhs
	EQ                 // Σ coef·x = rhs
)

// Row is one linear constraint.
type Row struct {
	Coef  []float64
	Sense RowSense
	RHS   float64
}

// LP is min Cost·x subject to Rows, x ≥ 0.
type LP struct {
	NumVars int
	Cost    []float64
	Rows    []Row
}

// Validate rejects malformed or non-finite input.
func (lp LP) Validate() error {
	if lp.NumVars <= 0 {
		return fmt.Errorf("strategy: LP has %d variables", lp.NumVars)
	}
	if len(lp.Cost) != lp.NumVars {
		return fmt.Errorf("strategy: LP has %d costs for %d variables", len(lp.Cost), lp.NumVars)
	}
	if len(lp.Rows) == 0 {
		return fmt.Errorf("strategy: LP has no rows")
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for _, c := range lp.Cost {
		if !finite(c) {
			return fmt.Errorf("strategy: non-finite cost %g", c)
		}
	}
	for i, r := range lp.Rows {
		if len(r.Coef) != lp.NumVars {
			return fmt.Errorf("strategy: row %d has %d coefficients for %d variables", i, len(r.Coef), lp.NumVars)
		}
		if r.Sense != LE && r.Sense != GE && r.Sense != EQ {
			return fmt.Errorf("strategy: row %d has unknown sense %d", i, r.Sense)
		}
		if !finite(r.RHS) {
			return fmt.Errorf("strategy: row %d has non-finite rhs", i)
		}
		for _, c := range r.Coef {
			if !finite(c) {
				return fmt.Errorf("strategy: row %d has non-finite coefficient", i)
			}
		}
	}
	return nil
}

// Status is the outcome of a solve.
type Status uint8

// Solve outcomes.
const (
	StatusOptimal Status = iota
	StatusInfeasible
	StatusUnbounded
	StatusIterLimit // pivot cap hit; should not occur in practice
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Solution is the certified outcome of a solve.
//
// StatusOptimal carries the primal optimum X, its duals Y, and Obj = c·X =
// Y·b. StatusInfeasible carries a Farkas certificate in Y: a vector with
// the dual sign pattern satisfying Y·A ≤ 0 columnwise and Y·b > 0, which
// no feasible x can permit. StatusUnbounded carries a feasible X and a Ray
// with A·Ray respecting every row sense, Ray ≥ 0, and Cost·Ray < 0.
type Solution struct {
	Status Status
	X      []float64
	Obj    float64
	Y      []float64
	Ray    []float64
	Pivots int
}

const (
	pivTol    = 1e-9  // minimum pivot magnitude / reduced-cost threshold
	feasTol   = 1e-7  // phase-1 objective below this means feasible
	degenTol  = 1e-12 // a step shorter than this is a degenerate pivot
	blandTrip = 40    // degenerate pivots in a row before Bland's rule
)

// simplex is the internal standard-form revised simplex. Columns are indexed
// [structural | slack | artificial | generated…]; the artificial of row i is
// column artBase+i. An artificial never enters the basis: it is either basic
// in its own row from the start (GE/EQ rows) or out for good, so it cannot
// migrate rows and survive into phase 2 with a nonzero ray component.
type simplex struct {
	m       int       // rows
	rowMult []float64 // ±1: applied to make every RHS non-negative
	nStruct int
	artBase int
	ncols   int

	// Original columns in compressed sparse form (rows already multiplied
	// by rowMult): column j holds colRow/colVal[colPtr[j]:colPtr[j+1]].
	colPtr []int
	colRow []int
	colVal []float64
	cost   []float64 // phase-2 cost per column
	basic  []bool

	binv  []float64 // B⁻¹, column-major: binv[k*m+i] = (B⁻¹)_ik
	b     []float64 // basic variable values, B⁻¹·rhs
	y     []float64 // duals c_B·B⁻¹ for the current phase's costs
	basis []int     // row → basic column
	d     []float64 // B⁻¹·a_e for the entering column (ftran scratch)
	cand  []int     // Dantzig candidate list, ascending column index

	feasPhase bool // phase 1: cost 1 on artificials, 0 elsewhere
	objVal    float64
	pivots    int
	pivotBase int // pivots at the start of the current phase
	bland     bool
	degen     int
	// crashing suspends the b ≥ 0 clamp during crash pivots: intermediate
	// values may dip negative exactly and cancel by the final crash pivot,
	// and clamping mid-sequence would corrupt them.
	crashing bool
}

// Solve solves the LP from scratch. The returned error reports malformed
// input only; infeasibility and unboundedness are Solution statuses.
func Solve(lp LP) (Solution, error) {
	s, err := newSimplex(lp)
	if err != nil {
		return Solution{}, err
	}
	return s.solve(), nil
}

func newSimplex(lp LP) (*simplex, error) {
	if err := lp.Validate(); err != nil {
		return nil, err
	}
	m, nv := len(lp.Rows), lp.NumVars
	s := &simplex{
		m:       m,
		rowMult: make([]float64, m),
		nStruct: nv,
		binv:    make([]float64, m*m),
		b:       make([]float64, m),
		y:       make([]float64, m),
		basis:   make([]int, m),
		d:       make([]float64, m),
	}
	// Standard form: flip rows with negative RHS (which flips LE↔GE); one
	// slack per inequality and one artificial per row follow the
	// structural columns.
	sense := make([]RowSense, m)
	nSlack, nnz := 0, 0
	for i, r := range lp.Rows {
		s.rowMult[i], s.b[i], sense[i] = 1, r.RHS, r.Sense
		if r.RHS < 0 {
			s.rowMult[i], s.b[i] = -1, -r.RHS
			switch r.Sense {
			case LE:
				sense[i] = GE
			case GE:
				sense[i] = LE
			}
		}
		if sense[i] != EQ {
			nSlack++
		}
		for _, c := range r.Coef {
			if c != 0 {
				nnz++
			}
		}
	}
	s.artBase = nv + nSlack
	s.ncols = s.artBase + m
	s.colPtr = make([]int, 1, s.ncols+1)
	s.colRow = make([]int, 0, nnz+nSlack+m)
	s.colVal = make([]float64, 0, nnz+nSlack+m)
	s.cost = make([]float64, s.ncols)
	s.basic = make([]bool, s.ncols)
	copy(s.cost, lp.Cost)
	for j := 0; j < nv; j++ {
		for i := range lp.Rows {
			if c := lp.Rows[i].Coef[j]; c != 0 {
				s.colRow = append(s.colRow, i)
				s.colVal = append(s.colVal, s.rowMult[i]*c)
			}
		}
		s.colPtr = append(s.colPtr, len(s.colRow))
	}
	unit := func(i int, v float64) {
		s.colRow = append(s.colRow, i)
		s.colVal = append(s.colVal, v)
		s.colPtr = append(s.colPtr, len(s.colRow))
	}
	// Initial basis, B = I: the slack for LE rows, the artificial otherwise.
	for i := range lp.Rows {
		switch sense[i] {
		case LE:
			s.basis[i] = len(s.colPtr) - 1
			unit(i, 1)
		case GE:
			unit(i, -1)
			s.basis[i] = s.artBase + i
		default:
			s.basis[i] = s.artBase + i
		}
	}
	for i := range lp.Rows {
		unit(i, 1)
		s.binv[i*m+i] = 1
		s.basic[s.basis[i]] = true
	}
	return s, nil
}

func (s *simplex) isArt(j int) bool { return j >= s.artBase && j < s.artBase+s.m }

// loadObjective recomputes the duals and objective of the current phase
// from the basis: y = c_B·B⁻¹, objVal = c_B·b.
func (s *simplex) loadObjective() {
	s.objVal = 0
	for k := range s.y {
		s.y[k] = 0
	}
	for i, bj := range s.basis {
		cb := s.cost[bj]
		if s.feasPhase {
			cb = 0
			if s.isArt(bj) {
				cb = 1
			}
		}
		if cb == 0 {
			continue
		}
		s.objVal += cb * s.b[i]
		for k := range s.y {
			s.y[k] += cb * s.binv[k*s.m+i]
		}
	}
}

// reduced prices a non-artificial column against the current duals:
// c_j − y·a_j over the column's nonzeros.
func (s *simplex) reduced(j int) float64 {
	r := 0.0
	if !s.feasPhase {
		r = s.cost[j]
	}
	for p := s.colPtr[j]; p < s.colPtr[j+1]; p++ {
		r -= s.y[s.colRow[p]] * s.colVal[p]
	}
	return r
}

// entering picks the entering column and its reduced cost, or -1 at
// optimality.
func (s *simplex) entering() (int, float64) {
	if s.bland {
		for j := 0; j < s.ncols; j++ {
			if s.basic[j] || s.isArt(j) {
				continue
			}
			if r := s.reduced(j); r < -pivTol {
				return j, r
			}
		}
		return -1, 0
	}
	for refilled := false; ; refilled = true {
		best, bestVal := -1, -pivTol
		keep := s.cand[:0]
		for _, j := range s.cand {
			if s.basic[j] {
				continue
			}
			if r := s.reduced(j); r < -pivTol {
				keep = append(keep, j)
				if r < bestVal {
					best, bestVal = j, r
				}
			}
		}
		s.cand = keep
		if best >= 0 || refilled {
			return best, bestVal
		}
		// No candidate is attractive any more: the next pass prices every
		// nonbasic column.
		for j := 0; j < s.ncols; j++ {
			if !s.basic[j] && !s.isArt(j) {
				s.cand = append(s.cand, j)
			}
		}
	}
}

// ftran loads d = B⁻¹·a_e from column e's nonzeros.
func (s *simplex) ftran(e int) {
	d := s.d
	for i := range d {
		d[i] = 0
	}
	for p := s.colPtr[e]; p < s.colPtr[e+1]; p++ {
		a, col := s.colVal[p], s.binv[s.colRow[p]*s.m:][:s.m]
		for i, v := range col {
			d[i] += a * v
		}
	}
}

// leaving runs the ratio test on the loaded entering column d, or -1 if
// unbounded. Ties are broken by the largest pivot element (fewer degenerate
// rows downstream, better conditioning), except in Bland mode where the
// lowest-index rule is what guarantees termination.
func (s *simplex) leaving() int {
	col := s.d
	row, bestRatio := -1, math.Inf(1)
	for i := 0; i < s.m; i++ {
		if col[i] <= pivTol {
			continue
		}
		ratio := s.b[i] / col[i]
		if ratio < bestRatio-degenTol {
			row, bestRatio = i, ratio
			continue
		}
		if ratio >= bestRatio+degenTol || row < 0 {
			if row < 0 {
				row, bestRatio = i, ratio
			}
			continue
		}
		if s.bland {
			if s.basis[i] < s.basis[row] {
				row, bestRatio = i, ratio
			}
		} else if col[i] > col[row] {
			row, bestRatio = i, ratio
		}
	}
	return row
}

// pivot brings column e, loaded in d with reduced cost de, into the basis
// at row r: an elementary row operation on B⁻¹, b and y.
func (s *simplex) pivot(r, e int, de float64) {
	d := s.d
	pe := d[r]
	theta := s.b[r] / pe
	if theta < degenTol {
		s.degen++
		if s.degen >= blandTrip {
			s.bland = true
		}
	} else {
		// Strict progress: the objective just decreased, so no earlier basis
		// can recur. Dropping back to Dantzig keeps Bland's slow-but-safe
		// rule confined to degenerate stretches without losing finiteness.
		s.degen = 0
		s.bland = false
	}
	s.objVal += de * theta

	s.b[r] = theta
	for i, v := range d {
		if i != r && v != 0 {
			s.b[i] -= v * theta
			if s.b[i] < 0 && !s.crashing {
				s.b[i] = 0 // clamp rounding; b stays feasible by construction
			}
		}
	}
	// Row r of B⁻¹ is scaled by 1/pe and d_i times it is subtracted from
	// every other row. Past the first few pivots d is dense, so the inner
	// loop runs over all of it with d_r zeroed rather than skipping zeros;
	// columns with a zero in row r (basic slacks, mostly) are untouched.
	d[r] = 0
	for k := 0; k < s.m; k++ {
		col := s.binv[k*s.m:][:len(d)]
		vr := col[r] / pe
		if vr == 0 {
			continue
		}
		for i, v := range d {
			col[i] -= v * vr
		}
		col[r] = vr
		s.y[k] += de * vr
	}
	d[r] = pe
	s.basic[s.basis[r]], s.basic[e] = false, true
	s.basis[r] = e
	s.pivots++
}

// crash pivots a caller-supplied starting basis in, bypassing the ratio
// test: each pair is (row, entering column). The caller must order the
// pairs so that b stays nonnegative after every pivot — crash verifies
// only that each pivot element is numerically usable. If the crash leaves
// no artificial basic, phase 1 reduces to a no-op and the solve proceeds
// straight to phase 2 from the crashed vertex.
func (s *simplex) crash(pairs [][2]int) error {
	s.crashing = true
	defer func() { s.crashing = false }()
	for _, p := range pairs {
		r, e := p[0], p[1]
		if r < 0 || r >= s.m || e < 0 || e >= s.ncols || s.isArt(e) {
			return fmt.Errorf("strategy: crash pivot (%d,%d) out of range", r, e)
		}
		s.ftran(e)
		if math.Abs(s.d[r]) <= pivTol {
			return fmt.Errorf("strategy: crash pivot (%d,%d) element %g too small", r, e, s.d[r])
		}
		s.pivot(r, e, 0) // no objective is loaded yet
	}
	for i := 0; i < s.m; i++ {
		if s.b[i] < 0 {
			if s.b[i] < -feasTol {
				return fmt.Errorf("strategy: crash basis infeasible at row %d (b = %g)", i, s.b[i])
			}
			s.b[i] = 0
		}
	}
	return nil
}

// maxPivots is the per-phase pivot budget; each phase-2 (re)start resets
// the base so warm-started column-generation rounds get a fresh budget.
func (s *simplex) maxPivots() int {
	return 20000 + 50*(s.m+s.ncols)
}

// beginPhase loads the phase's objective and resets the per-phase pivot
// base, the candidate list and the anti-cycling state.
func (s *simplex) beginPhase(feas bool) {
	s.feasPhase = feas
	s.loadObjective()
	s.pivotBase = s.pivots
	s.cand = s.cand[:0]
	s.bland = false
	s.degen = 0
}

// iterate runs pivots to a terminal status; on StatusUnbounded the
// improving column is returned and left loaded in d.
func (s *simplex) iterate() (Status, int) {
	for {
		if s.pivots-s.pivotBase > s.maxPivots() {
			return StatusIterLimit, -1
		}
		e, de := s.entering()
		if e < 0 {
			return StatusOptimal, -1
		}
		s.ftran(e)
		r := s.leaving()
		if r < 0 {
			return StatusUnbounded, e
		}
		s.pivot(r, e, de)
	}
}

// phase1 drives the artificial variables to zero. Returns false when the
// LP is infeasible (or the pivot cap was hit, with st telling which).
func (s *simplex) phase1() (ok bool, st Status) {
	// Cost 1 on the artificials: if the minimum stays positive, the optimal
	// duals y are the Farkas witness.
	s.beginPhase(true)
	needed := false
	for _, bj := range s.basis {
		needed = needed || s.isArt(bj)
	}
	if needed {
		if st, _ := s.iterate(); st == StatusIterLimit {
			return false, st
		}
		if s.objVal > feasTol {
			return false, StatusInfeasible
		}
	}
	// Drive any basic artificial out of its (degenerate) row; rows with no
	// nonzero real entry are redundant and keep the artificial at zero,
	// where the ratio test can never pick it again.
	for i := 0; i < s.m; i++ {
		if !s.isArt(s.basis[i]) {
			continue
		}
		for j := 0; j < s.ncols; j++ {
			if s.isArt(j) {
				continue
			}
			a := 0.0 // (B⁻¹a_j)_i, summed exactly as ftran would
			for p := s.colPtr[j]; p < s.colPtr[j+1]; p++ {
				a += s.colVal[p] * s.binv[s.colRow[p]*s.m+i]
			}
			if math.Abs(a) > pivTol {
				s.ftran(j)
				s.pivot(i, j, s.reduced(j))
				break
			}
		}
	}
	return true, StatusOptimal
}

// duals returns y = c_B·B⁻¹ in the caller's row convention for the
// currently loaded objective.
func (s *simplex) duals() []float64 {
	y := make([]float64, s.m)
	for i := range y {
		y[i] = s.rowMult[i] * s.y[i]
	}
	return y
}

// extractX reads the structural variable values.
func (s *simplex) extractX() []float64 {
	x := make([]float64, s.nStruct)
	for i, bj := range s.basis {
		if bj < s.nStruct {
			x[bj] = s.b[i]
		}
	}
	return x
}

// value reads the current value of any column (generated ones included).
func (s *simplex) value(j int) float64 {
	if !s.basic[j] {
		return 0
	}
	for i, bj := range s.basis {
		if bj == j {
			return s.b[i]
		}
	}
	return 0
}

// solve runs both phases from the current state and packages the result.
func (s *simplex) solve() Solution {
	ok, st := s.phase1()
	if !ok {
		sol := Solution{Status: st, Pivots: s.pivots}
		if st == StatusInfeasible {
			// Farkas certificate from the phase-1 duals (artificial cost 1).
			sol.Y = s.duals()
			sol.Obj = s.objVal
		}
		return sol
	}
	return s.solvePhase2()
}

// solvePhase2 re-loads the real objective and iterates to a terminal
// status; separated so column generation can resume without re-running
// phase 1.
func (s *simplex) solvePhase2() Solution {
	s.beginPhase(false)
	st, enter := s.iterate()
	sol := Solution{Status: st, Pivots: s.pivots}
	switch st {
	case StatusOptimal:
		sol.X = s.extractX()
		sol.Obj = s.objVal
		sol.Y = s.duals()
	case StatusUnbounded:
		sol.X = s.extractX()
		sol.Obj = s.objVal
		ray := make([]float64, s.nStruct)
		if enter < s.nStruct {
			ray[enter] = 1
		}
		for i, bj := range s.basis {
			if bj < s.nStruct {
				if d := -s.d[i]; d > 0 {
					ray[bj] = d
				}
			}
		}
		sol.Ray = ray
	}
	return sol
}

// addColumn appends a column with the given cost and nonzeros (rows and
// vals in the caller's row convention, accumulated by ftran in the order
// given) and returns its index. Nothing else changes: the current basis
// stays feasible, so a subsequent solvePhase2 warm-starts. Generated
// columns land after the artificial block and are not structural for
// extractX; the caller tracks its own column → quorum mapping.
func (s *simplex) addColumn(cost float64, rows []int, vals []float64) int {
	for p, r := range rows {
		s.colRow = append(s.colRow, r)
		s.colVal = append(s.colVal, vals[p]*s.rowMult[r])
	}
	s.colPtr = append(s.colPtr, len(s.colRow))
	s.cost = append(s.cost, cost)
	s.basic = append(s.basic, false)
	s.ncols++
	return s.ncols - 1
}
