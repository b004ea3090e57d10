package strategy

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"quorumkit/internal/quorum"
)

// Strategy optimizers. All three objectives are linear programs over the
// product of two simplices (the read-quorum and write-quorum
// distributions), with one load row per (site, fr-atom) pair:
//
//	capacity   min Σ_j p_j·L_j        s.t. per-site load at fr_j ≤ L_j
//	latency    min E[quorum latency]  s.t. per-site load at fr_j ≤ limit
//	resilient  capacity restricted to quorums that stay quorums after
//	           losing their f largest-vote members
//
// Only minimal quorums enter the LP (enumerate.go), and capacities and
// latencies are rescaled to O(1) before the solve so the 1e-9 certificate
// tolerances are meaningful. Every LP is column-sparse from the start: one
// helper (loadCoefs.column) writes a quorum's column — its convexity row,
// then one load row per (fr-atom, member) — for the capacity LP, the
// latency LP and the columns generation appends, and the solver and the
// certificate work over those nonzeros as they are. The capacity
// objectives solve the whole LP only while each side has at most
// enumerateMax minimal quorums; past that they run column generation,
// which measures faster from 11 sites up (DESIGN §15): solve over a seeded
// pool, then each round price one quorum column per side with a min-cost
// vote-knapsack DP (O(n·f·q), on one pricer per side that owns its vote
// order and DP table for the whole run) at Wentges-smoothed duals, and
// append it to the solver, which warm-starts from its optimal basis. Every
// pricing yields a certified Lagrangian bound, so the run can stop at a
// target gap; convergence is declared only when pricing at the master's
// own duals proves no quorum anywhere has negative reduced cost.
// Generation ignores Options.TargetGap and runs to that proof while both
// sides have at most exactMax minimal quorums, so every system the full LP
// once solved exactly still gets an exact optimum. The proof is what keeps
// strategy search *certified* far past enumeration: a 151-site system
// reaches a 5% certified gap in about 1.5 s.

// ErrLoadLimitInfeasible reports that no strategy meets the latency
// optimizer's per-site load limit; the returned Result carries the Farkas
// certificate proving it.
var ErrLoadLimitInfeasible = errors.New("strategy: no strategy meets the load limit")

// ErrResilienceInfeasible reports that the f-resilient pool is empty: no
// quorum keeps its threshold after every possible f-site loss, so the
// resilient capacity LP has no columns at all.
var ErrResilienceInfeasible = errors.New("strategy: no resilient quorum exists")

// Options tunes the optimizers. The zero value solves to exact optimality.
type Options struct {
	// TargetGap, when positive, lets the capacity optimizers' column
	// generation stop once the certified bound gap (Value − Bound)/Value
	// falls below it, trading exact pricing convergence for time on very
	// large systems: those with more than exactMax (2,048) minimal quorums
	// on a side. Smaller systems are always solved exactly. The bound is
	// still certified; only Priced=false records the early stop.
	TargetGap float64
}

// The pool sizes that pick a capacity solve's path (DESIGN §15). While both
// sides have at most enumerateMax minimal quorums — every unit-vote system
// of up to 10 sites — the whole LP is enumerated and solved. Past that,
// column generation runs, to exact pricing convergence while both sides
// have at most exactMax, and down to Options.TargetGap beyond. exactMax
// also caps the latency LP's and BestDeterministic's enumeration.
const (
	enumerateMax = 256
	exactMax     = 2048
)

// Column generation's fixed tuning: the cap on rounds, the rotation-seeded
// quorums per side it starts from, and the Wentges smoothing weight α.
// Each round prices at λ̃ = α·λ̄ + (1−α)·λ, where λ is the master's
// load-row duals and λ̄ the duals of the best bound so far; pulling λ toward
// λ̄ damps the round-to-round oscillation of the master's duals that makes
// unsmoothed generation tail off. α from 0.6 to 0.8 measures alike on the
// 31-site solve, 0.5 and 0.9 worse (DESIGN §15).
const (
	cgMaxRounds = 2000
	cgSeeds     = 16
	cgSmooth    = 0.7
)

// Result is a solved and certifiable optimization.
type Result struct {
	Strategy Strategy
	// Value is the objective in natural units: expected bottleneck load per
	// unit throughput for the capacity objectives, expected quorum latency
	// for the latency objective.
	Value float64
	// Capacity is the strategy's throughput ceiling 1/E[max load].
	Capacity float64

	// The exact LP solved (in rescaled units) and its certified solution;
	// CheckSolution(LP, Sol, tol) re-proves the claim from scratch.
	LP  LP
	Sol Solution
	// Scale is the rescaling constant: capacities were divided by it
	// (capacity LPs) or latencies were (latency LP).
	Scale float64

	ReadPool, WritePool []Quorum
	// PoolComplete: the pools hold every minimal quorum.
	PoolComplete bool
	// Priced: optimality over the full quorum universe is proved — either
	// the pools are complete, or column-generation pricing found no
	// negative-reduced-cost column anywhere.
	Priced bool
	// Bound is a certified lower bound on the optimal Value over the full
	// quorum universe (the best Lagrangian bound of any column-generation
	// pricing round, see lagrangian; equal to Value, up to the pricing
	// tolerance, when Priced).
	Bound float64
	// Rounds and Generated count column-generation work (0 when pools were
	// enumerated exhaustively).
	Rounds, Generated int
}

// Certify re-verifies the solver's certificate by direct arithmetic.
func (r *Result) Certify(tol float64) error {
	return CheckSolution(r.LP, r.Sol, tol)
}

// capScale returns the rescaling constant for capacity coefficients.
func capScale(sys System) float64 {
	m := 0.0
	for i := range sys.ReadCap {
		m = math.Max(m, math.Max(sys.ReadCap[i], sys.WriteCap[i]))
	}
	return m
}

// loadRow returns the LP row index of site x at fr-atom j.
func loadRow(n, j, x int) int { return 2 + j*n + x }

// loadCoefs holds the load-row coefficients of one capacity or latency LP,
// one table per side (0 reads, 1 writes) laid out j·n+x: the load, in
// rescaled units, that a quorum containing site x puts on x at fr-atom j.
type loadCoefs struct {
	n    int
	side [2][]float64
}

func newLoadCoefs(sys System, d FrDist, scale float64) loadCoefs {
	n := sys.N()
	c := loadCoefs{n: n, side: [2][]float64{make([]float64, n*len(d.Fr)), make([]float64, n*len(d.Fr))}}
	for j, fr := range d.Fr {
		for x := 0; x < n; x++ {
			c.side[0][j*n+x] = fr * scale / sys.ReadCap[x]
			c.side[1][j*n+x] = (1 - fr) * scale / sys.WriteCap[x]
		}
	}
	return c
}

// column appends the nonzeros of quorum q's column on side to rows and
// vals: its convexity row, then the load row of each (fr-atom, member)
// pair, rows ascending because q is sorted. A zero coefficient (fr = 0 on
// the read side, fr = 1 on the write side) is not stored.
func (c loadCoefs) column(rows []int, vals []float64, side int, q Quorum) ([]int, []float64) {
	rows, vals = append(rows, side), append(vals, 1)
	coef := c.side[side]
	for j := 0; j*c.n < len(coef); j++ {
		for _, x := range q {
			if v := coef[j*c.n+x]; v != 0 {
				rows, vals = append(rows, loadRow(c.n, j, x)), append(vals, v)
			}
		}
	}
	return rows, vals
}

// poolLP lays out an LP over [readPool | writePool | extra more columns]:
// two convexity rows (= 1), then one ≤ loadRHS row per (fr-atom, site), and
// the quorum columns. The caller sets the costs and appends the extra
// columns, which have room for n nonzeros each.
func poolLP(c loadCoefs, readPool, writePool []Quorum, extra int, loadRHS float64) LP {
	pools := [2][]Quorum{readPool, writePool}
	nv := len(readPool) + len(writePool) + extra
	nnz, J := nv-extra+extra*c.n, len(c.side[0])/c.n
	for _, pool := range pools {
		for _, q := range pool {
			nnz += J * len(q)
		}
	}
	lp := LP{NumVars: nv, Cost: make([]float64, nv), Rows: make([]Row, 2+J*c.n),
		ColStart: make([]int, 1, nv+1), ColRow: make([]int, 0, nnz), ColVal: make([]float64, 0, nnz)}
	for i := range lp.Rows {
		lp.Rows[i] = Row{Sense: LE, RHS: loadRHS}
	}
	lp.Rows[0], lp.Rows[1] = Row{Sense: EQ, RHS: 1}, Row{Sense: EQ, RHS: 1}
	for side, pool := range pools {
		for _, q := range pool {
			lp.ColRow, lp.ColVal = c.column(lp.ColRow, lp.ColVal, side, q)
			lp.endColumn()
		}
	}
	return lp
}

// buildCapacityLP lays out min Σ p_j·L_j with variables
// [readPool | writePool | L_0..L_{J-1}]: two normalization rows, then one
// ≤ 0 row per (fr-atom, site), where L_j carries −1.
func buildCapacityLP(c loadCoefs, d FrDist, readPool, writePool []Quorum) LP {
	lp := poolLP(c, readPool, writePool, len(d.Fr), 0)
	for j, p := range d.P {
		lp.Cost[len(readPool)+len(writePool)+j] = p
		for x := 0; x < c.n; x++ {
			lp.ColRow, lp.ColVal = append(lp.ColRow, loadRow(c.n, j, x)), append(lp.ColVal, -1)
		}
		lp.endColumn()
	}
	return lp
}

// assembleCapacity turns a solved capacity LP into a Result.
func assembleCapacity(sys System, lp LP, sol Solution, readPool, writePool []Quorum, scale float64) *Result {
	nR := len(readPool)
	raw := Strategy{
		ReadQuorums:  readPool,
		ReadProbs:    sol.X[:nR],
		WriteQuorums: writePool,
		WriteProbs:   sol.X[nR : nR+len(writePool)],
	}
	return &Result{
		Strategy:  raw.Canonical(1e-12),
		Value:     sol.Obj / scale,
		Capacity:  scale / sol.Obj,
		LP:        lp,
		Sol:       sol,
		Scale:     scale,
		ReadPool:  readPool,
		WritePool: writePool,
	}
}

// OptimizeCapacity maximizes the throughput ceiling: it minimizes
// E_fr[max_x load_x] over all strategies. The result carries a duality
// certificate; Priced reports whether optimality over the *entire* quorum
// universe is proved (always true when enumeration completed, and true
// after convergent column generation otherwise).
func OptimizeCapacity(sys System, d FrDist, opts Options) (*Result, error) {
	return optimizeCapacity(sys, d, 0, opts)
}

// OptimizeResilientCapacity is OptimizeCapacity restricted to f-resilient
// quorums: sets that still hold a quorum after any f of their members fail.
func OptimizeResilientCapacity(sys System, d FrDist, f int, opts Options) (*Result, error) {
	if f < 0 {
		return nil, fmt.Errorf("strategy: negative resilience %d", f)
	}
	return optimizeCapacity(sys, d, f, opts)
}

func optimizeCapacity(sys System, d FrDist, f int, opts Options) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	scale := capScale(sys)

	// An overflowing read pool sends both sides to column generation, so
	// the write pool is only enumerated when the read pool is complete.
	// When QR == QW the two pools are the same set and share one slice:
	// nothing downstream writes to a pool (Canonical copies each quorum).
	readPool, ok := quorum.ThresholdQuorums[Quorum](sys.Votes, sys.QR, f, enumerateMax)
	writePool := readPool
	if ok && sys.QW != sys.QR {
		writePool, ok = quorum.ThresholdQuorums[Quorum](sys.Votes, sys.QW, f, enumerateMax)
	}
	if ok {
		if len(readPool) == 0 || len(writePool) == 0 {
			return nil, fmt.Errorf("%w (f=%d)", ErrResilienceInfeasible, f)
		}
		lp, _, sol, err := solveCapacityLP(newLoadCoefs(sys, d, scale), d, readPool, writePool)
		if err != nil {
			return nil, err
		}
		res := assembleCapacity(sys, lp, sol, readPool, writePool, scale)
		res.PoolComplete, res.Priced = true, true
		res.Bound = res.Value
		return res, nil
	}
	gap := opts.TargetGap
	if _, ok := quorum.CountThresholdQuorums(sys.Votes, sys.QR, f, exactMax); ok {
		if _, ok := quorum.CountThresholdQuorums(sys.Votes, sys.QW, f, exactMax); ok {
			gap = 0
		}
	}
	return generateCapacity(sys, d, f, scale, gap)
}

// crashPlan builds a feasible starting basis for a capacity LP that skips
// phase 1: put all mass on the first quorum of each pool, set each L_j to
// that pair's bottleneck load, and park slacks everywhere else. Pivoting the
// L columns first (at zero) and the two σ columns after keeps b ≥ 0 exactly
// at every step, so no artificial ever has to climb out of the 2+nJ
// degenerate load rows — the stall that kills a cold phase 1 here.
func crashPlan(c loadCoefs, readPool, writePool []Quorum) [][2]int {
	n, nR, nW, J := c.n, len(readPool), len(writePool), len(c.side[0])/c.n
	loads := make([]float64, n)
	pairs := make([][2]int, 0, J+2)
	for j := 0; j < J; j++ {
		clear(loads)
		for _, x := range readPool[0] {
			loads[x] += c.side[0][j*n+x]
		}
		for _, x := range writePool[0] {
			loads[x] += c.side[1][j*n+x]
		}
		best := 0
		for x := 1; x < n; x++ {
			if loads[x] > loads[best] {
				best = x
			}
		}
		pairs = append(pairs, [2]int{loadRow(n, j, best), nR + nW + j})
	}
	return append(pairs, [2]int{0, 0}, [2]int{1, nR})
}

// solveCapacityLP builds the capacity LP over the given pools and solves it
// cold from the crash basis, returning the solver for warm continuation.
func solveCapacityLP(c loadCoefs, d FrDist, readPool, writePool []Quorum) (LP, *simplex, Solution, error) {
	lp := buildCapacityLP(c, d, readPool, writePool)
	sx, err := newSimplex(lp)
	if err != nil {
		return lp, nil, Solution{}, err
	}
	if err := sx.crash(crashPlan(c, readPool, writePool)); err != nil {
		return lp, nil, Solution{}, err
	}
	sol := sx.solve()
	if sol.Status != StatusOptimal {
		return lp, nil, sol, fmt.Errorf("strategy: capacity LP ended %v", sol.Status)
	}
	return lp, sx, sol, nil
}

// generateCapacity runs restricted-master column generation: solve over a
// seeded pool, price each side's cheapest quorum at smoothed duals with the
// knapsack DP, warm-start the ones that price out at the master's own duals
// into the solver, and repeat until exact pricing finds no violating column
// (or, for gap > 0, the certified Lagrangian bound gap falls under it). To
// keep the master narrow and the arithmetic fresh, the pool is periodically
// *purged* to its basic support and the solver rebuilt cold; a stop is only
// taken on a cold solve, so the final certificate never inherits warm-pivot
// drift.
func generateCapacity(sys System, d FrDist, f int, scale, gap float64) (*Result, error) {
	n, coefs := sys.N(), newLoadCoefs(sys, d, scale)
	actR, err := seedQuorums(sys, sys.QR, f, sys.ReadCap, cgSeeds)
	if err != nil {
		return nil, fmt.Errorf("strategy: seeding read quorums: %w", err)
	}
	actW, err := seedQuorums(sys, sys.QW, f, sys.WriteCap, cgSeeds)
	if err != nil {
		return nil, fmt.Errorf("strategy: seeding write quorums: %w", err)
	}

	var (
		sx         *simplex
		lp         LP
		sol        Solution
		seen       map[string]bool
		colR, colW []int // simplex column of each active pool member
		pivots     int   // pivots in fully retired solvers
	)
	// rebuild solves the active pool cold: pristine basis, exact layout
	// [actR | actW | L].
	rebuild := func() error {
		pivots += sol.Pivots // retire the old solver's count (0 at first)
		var err error
		if lp, sx, sol, err = solveCapacityLP(coefs, d, actR, actW); err != nil {
			return err
		}
		colR, colW = colR[:0], colW[:0]
		for i := range actR {
			colR = append(colR, i)
		}
		for i := range actW {
			colW = append(colW, len(actR)+i)
		}
		seen = make(map[string]bool, len(actR)+len(actW))
		for _, q := range actR {
			seen["r"+keyOf(q)] = true
		}
		for _, q := range actW {
			seen["w"+keyOf(q)] = true
		}
		return nil
	}
	// purge shrinks the active pools to the columns the current solution
	// actually uses. Support is never empty on either side: each convexity
	// row forces total mass 1.
	purge := func() {
		keepR := actR[:0:0]
		for i, q := range actR {
			if sx.value(colR[i]) > 1e-9 {
				keepR = append(keepR, q)
			}
		}
		keepW := actW[:0:0]
		for i, q := range actW {
			if sx.value(colW[i]) > 1e-9 {
				keepW = append(keepW, q)
			}
		}
		actR, actW = keepR, keepW
	}
	if err := rebuild(); err != nil {
		return nil, fmt.Errorf("strategy: seeded capacity LP: %w", err)
	}

	const priceTol = 1e-7
	priced, rounds, generated := false, 0, 0
	// dirty: columns were warm-added since the last cold rebuild, so the
	// basis inverse may carry drift and no stop may be taken from it.
	dirty := false
	adds := 0 // warm columns since last rebuild
	maxAdds := 4 * (n + len(d.Fr))
	// addQuorum appends one quorum column to the warm solver; side 0 is
	// reads (convexity row 0), side 1 writes (row 1).
	rows := make([]int, 0, 1+n*len(d.Fr))
	vals := make([]float64, 0, 1+n*len(d.Fr))
	addQuorum := func(side int, q Quorum) int {
		rows, vals = coefs.column(rows[:0], vals[:0], side, q)
		return sx.addColumn(0, rows, vals)
	}
	lg := newLagrangian(sys, d, f, coefs)
	lam := make([]float64, n*len(d.Fr)) // λ: the master's load-row duals, clamped ≤ 0
	smooth := make([]float64, len(lam)) // λ̃ = α·λ̄ + (1−α)·λ
	var center []float64                // λ̄: the duals of the best bound so far
	bound := math.Inf(-1)
	// priceAt prices both sides at duals at and moves the stability center
	// there when LB(at) is the best bound so far. Until the first bound
	// exists there is no center, so the first round prices at λ itself.
	priceAt := func(at []float64) (Quorum, Quorum) {
		qR, qW, lb := lg.price(at)
		if lb > bound {
			bound, center = lb, append(center[:0], at...)
		}
		return qR, qW
	}
	// violation is μ_side − cost_λ(q): positive when q's column has negative
	// reduced cost at the master's own duals.
	violation := func(q Quorum, side int) float64 {
		v := sol.Y[side]
		for j := range d.Fr {
			for _, x := range q {
				v += lam[j*n+x] * coefs.side[side][j*n+x]
			}
		}
		return v
	}
	// pick appends q to dst when it prices out at the master's duals and is
	// not already active.
	pick := func(dst []Quorum, q Quorum, side int) []Quorum {
		k := string("rw"[side]) + keyOf(q)
		if q == nil || violation(q, side) <= priceTol/2 || seen[k] {
			return dst
		}
		seen[k] = true
		return append(dst, q)
	}
	var newR, newW []Quorum
	for ; rounds < cgMaxRounds; rounds++ {
		for i := range lam {
			lam[i] = math.Min(sol.Y[2+i], 0)
		}
		exact, at := center == nil, lam
		if !exact {
			for i, l := range lam {
				smooth[i] = cgSmooth*center[i] + (1-cgSmooth)*l
			}
			at = smooth
		}
		qR, qW := priceAt(at)
		newR, newW = pick(newR[:0], qR, 0), pick(newW[:0], qW, 1)
		if !exact && len(newR)+len(newW) == 0 {
			// Mispricing: the smoothed columns price out on neither side.
			// Price at the master's own duals; only that can prove
			// convergence.
			exact = true
			qR, qW = priceAt(lam)
			newR, newW = pick(newR, qR, 0), pick(newW, qW, 1)
		}
		converged := exact && math.Max(0, violation(qR, 0))+math.Max(0, violation(qW, 1)) <= priceTol
		early := gap > 0 && sol.Obj-bound <= gap*math.Abs(sol.Obj)
		// A violating column that is already active means degenerate duals
		// with nothing new to add: stop as if converged, without the proof.
		if converged || early || len(newR)+len(newW) == 0 {
			if dirty {
				// Seen on a warm solve: purge, re-solve cold, and let the
				// next round re-verify against exact duals.
				purge()
				if err := rebuild(); err != nil {
					return nil, err
				}
				dirty, adds = false, 0
				continue
			}
			priced = converged
			break
		}
		generated += len(newR) + len(newW)
		adds += len(newR) + len(newW)
		if adds > maxAdds {
			// Master grew too wide: purge to support plus the new columns
			// and restart cold. This bounds the master's width by the row
			// count and resets accumulated pivot error.
			purge()
			actR = append(actR, newR...)
			actW = append(actW, newW...)
			if err := rebuild(); err != nil {
				return nil, err
			}
			dirty, adds = false, 0
			continue
		}
		// Warm path: append the new columns and continue the current solver
		// from its optimal basis. Warm columns land after the
		// slack/artificial block, so track their indices for purge.
		for _, q := range newR {
			colR = append(colR, addQuorum(0, q))
		}
		for _, q := range newW {
			colW = append(colW, addQuorum(1, q))
		}
		actR = append(actR, newR...)
		actW = append(actW, newW...)
		dirty = true
		sol = sx.solvePhase2()
		if sol.Status != StatusOptimal {
			return nil, fmt.Errorf("strategy: column-generation round %d ended %v", rounds, sol.Status)
		}
	}
	if dirty {
		// cgMaxRounds exhausted mid-warm: finish on a cold solve so the
		// returned certificate is pristine.
		purge()
		if err := rebuild(); err != nil {
			return nil, err
		}
	}
	res := assembleCapacity(sys, lp, sol, actR, actW, scale)
	res.Priced = priced
	res.Bound = math.Min(bound, sol.Obj) / scale
	res.Rounds, res.Generated = rounds, generated
	res.Sol.Pivots = pivots + sol.Pivots
	return res, nil
}

// lagrangian prices both sides of one capacity LP at any load-row duals
// λ ≤ 0, laid out λ_jx at index j·n+x, and returns the Lagrangian bound
//
//	LB(λ) = (min_R cost_λ(R) + min_W cost_λ(W)) / max(1, max_j Σ_x −λ_jx / p_j)
//
// where cost_λ(Q) = Σ_j Σ_{x∈Q} −λ_jx·coef_jx. The L_j columns' dual rows
// cap Σ_x −λ_jx at p_j; dividing by the max rescales λ into that budget,
// which with μ = the two minima is dual-feasible for every quorum column,
// and LB is positively homogeneous in λ. So LB is a certified lower bound
// whichever solve produced λ: cold, warm or smoothed.
type lagrangian struct {
	coefs        loadCoefs
	p            []float64 // the fr-atom probabilities
	r, w         *pricer
	rcost, wcost []float64
}

func newLagrangian(sys System, d FrDist, f int, coefs loadCoefs) *lagrangian {
	n := sys.N()
	return &lagrangian{coefs: coefs, p: d.P,
		r: newPricer(sys.Votes, sys.QR, f), w: newPricer(sys.Votes, sys.QW, f),
		rcost: make([]float64, n), wcost: make([]float64, n)}
}

// price returns each side's cheapest quorum at lam and LB(lam).
func (g *lagrangian) price(lam []float64) (qR, qW Quorum, lb float64) {
	n, s := len(g.rcost), 1.0
	clear(g.rcost)
	clear(g.wcost)
	for j, p := range g.p {
		use := 0.0
		rc, wc := g.coefs.side[0][j*n:][:n], g.coefs.side[1][j*n:][:n]
		for x, l := range lam[j*n : (j+1)*n] {
			use -= l
			g.rcost[x] -= l * rc[x]
			g.wcost[x] -= l * wc[x]
		}
		s = math.Max(s, use/p)
	}
	qR, cR, _ := g.r.price(g.rcost)
	qW, cW, _ := g.w.price(g.wcost)
	return qR, qW, (cR + cW) / s
}

// OptimizeLatency minimizes the expected quorum completion latency subject
// to every site's load staying under loadLimit (per unit throughput) in
// every fr regime. When no strategy fits under the limit it returns the
// Result holding the Farkas infeasibility certificate alongside
// ErrLoadLimitInfeasible.
func OptimizeLatency(sys System, d FrDist, loadLimit float64) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	if loadLimit <= 0 || math.IsNaN(loadLimit) || math.IsInf(loadLimit, 0) {
		return nil, fmt.Errorf("strategy: bad load limit %g", loadLimit)
	}
	readPool, rOK := quorum.ThresholdQuorums[Quorum](sys.Votes, sys.QR, 0, exactMax)
	writePool, wOK := quorum.ThresholdQuorums[Quorum](sys.Votes, sys.QW, 0, exactMax)
	nR := len(readPool)

	scale := capScale(sys)
	latScale := 0.0
	for _, l := range sys.Latency {
		latScale = math.Max(latScale, l)
	}
	if latScale == 0 {
		latScale = 1
	}
	fbar := d.Mean()
	lp := poolLP(newLoadCoefs(sys, d, scale), readPool, writePool, 0, loadLimit*scale)
	for r, q := range readPool {
		lp.Cost[r] = fbar * q.latency(sys.Latency) / latScale
	}
	for w, q := range writePool {
		lp.Cost[nR+w] = (1 - fbar) * q.latency(sys.Latency) / latScale
	}
	sol, err := Solve(lp)
	if err != nil {
		return nil, err
	}
	res := &Result{
		LP:           lp,
		Sol:          sol,
		Scale:        latScale,
		ReadPool:     readPool,
		WritePool:    writePool,
		PoolComplete: rOK && wOK,
		Priced:       rOK && wOK,
	}
	switch sol.Status {
	case StatusOptimal:
	case StatusInfeasible:
		return res, ErrLoadLimitInfeasible
	default:
		return nil, fmt.Errorf("strategy: latency LP ended %v", sol.Status)
	}
	raw := Strategy{
		ReadQuorums:  readPool,
		ReadProbs:    sol.X[:nR],
		WriteQuorums: writePool,
		WriteProbs:   sol.X[nR:],
	}
	res.Strategy = raw.Canonical(1e-12)
	res.Value = sol.Obj * latScale
	res.Capacity = res.Strategy.Capacity(sys, d)
	return res, nil
}

// BestDeterministic returns the best *single* (read quorum, write quorum)
// pair — the classical deterministic assignment — and its capacity, for
// comparison against the randomized optimum. Requires complete pools.
func BestDeterministic(sys System, d FrDist) (Strategy, float64, error) {
	if err := sys.Validate(); err != nil {
		return Strategy{}, 0, err
	}
	if err := d.validate(); err != nil {
		return Strategy{}, 0, err
	}
	readPool, rOK := quorum.ThresholdQuorums[Quorum](sys.Votes, sys.QR, 0, exactMax)
	writePool, wOK := quorum.ThresholdQuorums[Quorum](sys.Votes, sys.QW, 0, exactMax)
	if !rOK || !wOK {
		return Strategy{}, 0, fmt.Errorf("strategy: pools too large to enumerate (cap %d)", exactMax)
	}
	var best Strategy
	bestLoad := math.Inf(1)
	for _, r := range readPool {
		for _, w := range writePool {
			st := Strategy{
				ReadQuorums: []Quorum{r}, ReadProbs: []float64{1},
				WriteQuorums: []Quorum{w}, WriteProbs: []float64{1},
			}
			if l := st.ExpectedMaxLoad(sys, d); l < bestLoad {
				bestLoad, best = l, st
			}
		}
	}
	return best, 1 / bestLoad, nil
}

// CertifyGlobalCapacity proves a capacity Result optimal over the FULL
// strategy space by independent arithmetic: it re-checks the duality
// certificate on the solved LP, then verifies dual feasibility of the
// column of every minimal (f-resilient) quorum — enumerated exhaustively,
// regardless of how the solve obtained its pool. Quorum dominance extends
// the proof from minimal quorums to all quorums.
func CertifyGlobalCapacity(sys System, d FrDist, f int, res *Result, tol float64) error {
	if err := res.Certify(tol); err != nil {
		return err
	}
	n, J := sys.N(), len(d.Fr)
	y := res.Sol.Y
	if len(y) != 2+n*J {
		return fmt.Errorf("strategy: dual has %d entries, want %d", len(y), 2+n*J)
	}
	coefs := newLoadCoefs(sys, d, res.Scale)
	var rows []int
	var vals []float64
	for side, q := range []int{sys.QR, sys.QW} {
		qs, ok := quorum.ThresholdQuorums[Quorum](sys.Votes, q, f, 0)
		if !ok {
			return fmt.Errorf("strategy: exhaustive enumeration failed") // max=0 is unlimited; unreachable
		}
		for _, q := range qs {
			// The reduced cost of q's (cost-0) column.
			rc := 0.0
			rows, vals = coefs.column(rows[:0], vals[:0], side, q)
			for p, i := range rows {
				rc -= y[i] * vals[p]
			}
			if !(rc >= -tol) {
				return fmt.Errorf("strategy: %s quorum %v has reduced cost %g < 0: solve is not globally optimal",
					[]string{"read", "write"}[side], q, rc)
			}
		}
	}
	return nil
}

// keyOf is a map key for a sorted quorum.
func keyOf(q Quorum) string {
	b := make([]byte, 0, 4*len(q))
	for _, x := range q {
		b = append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return string(b)
}

// seedQuorums builds a small, diverse pool of minimal (f-resilient)
// quorums to start column generation: capacity-greedy, latency-greedy,
// vote-greedy, and rotation orderings so every site appears in some seed
// and the initial LP is feasible with load spread available.
func seedQuorums(sys System, q, f int, caps []float64, rotations int) ([]Quorum, error) {
	n := sys.N()
	orders := make([][]int, 0, rotations+3)
	byScore := func(score func(int) float64) []int {
		o := make([]int, n)
		for i := range o {
			o[i] = i
		}
		sort.SliceStable(o, func(a, b int) bool { return score(o[a]) > score(o[b]) })
		return o
	}
	orders = append(orders,
		byScore(func(x int) float64 { return caps[x] }),
		byScore(func(x int) float64 { return -sys.Latency[x] }),
		byScore(func(x int) float64 { return float64(sys.Votes[x]) }),
	)
	if rotations > n {
		rotations = n
	}
	for k := 0; k < rotations; k++ {
		off := k * n / rotations
		o := make([]int, n)
		for i := range o {
			o[i] = (off + i) % n
		}
		orders = append(orders, o)
	}
	seen := map[string]bool{}
	var out []Quorum
	scratch := make([]int, n)
	for _, order := range orders {
		set := fillQuorum(sys.Votes, q, f, order)
		if set == nil {
			return nil, fmt.Errorf("no %d-resilient set reaches %d votes", f, q)
		}
		set = minimalizeQuorum(sys.Votes, q, f, set, caps, scratch)
		if k := keyOf(set); !seen[k] {
			seen[k] = true
			out = append(out, set)
		}
	}
	return out, nil
}

// fillQuorum walks order accumulating sites until the f-resilient vote sum
// reaches q; nil when even the full site set falls short.
func fillQuorum(votes []int, q, f int, order []int) Quorum {
	var set Quorum
	for _, x := range order {
		set = append(set, x)
		if resilientVotes(votes, set, f) >= q {
			sort.Ints(set)
			return set
		}
	}
	return nil
}

// resilientVotes is votes(S) minus the f largest member votes. Members are
// totally ordered by (vote descending, position ascending); each pass
// selects the next one in that order, so no scratch is needed.
func resilientVotes(votes []int, set Quorum, f int) int {
	t := set.votes(votes)
	prevV, prevI := math.MaxInt, -1
	for k := 0; k < f && k < len(set); k++ {
		bestV, bestI := -1, -1
		for i, x := range set {
			if v := votes[x]; v > bestV && (v < prevV || (v == prevV && i > prevI)) {
				bestV, bestI = v, i
			}
		}
		t -= bestV
		prevV, prevI = bestV, bestI
	}
	return t
}

// minimalizeQuorum drops removable members of the sorted set in place —
// lowest capacity first — until it is a minimal f-resilient quorum. scratch
// needs room for len(set) ints.
func minimalizeQuorum(votes []int, q, f int, set Quorum, caps []float64, scratch []int) Quorum {
	// Stable insertion sort of the members by capacity: sets are small and
	// sort.SliceStable allocates.
	order := scratch[:len(set)]
	for i, x := range set {
		j := i
		for ; j > 0 && caps[order[j-1]] > caps[x]; j-- {
			order[j] = order[j-1]
		}
		order[j] = x
	}
	for _, x := range order {
		// Try the set without x; put x back if that loses the quorum.
		i, _ := slices.BinarySearch(set, x)
		copy(set[i:], set[i+1:])
		if trial := set[:len(set)-1]; resilientVotes(votes, trial, f) >= q {
			set = trial
		} else {
			copy(set[i+1:], set[i:])
			set[i] = x
		}
	}
	return set
}

// pricer is the column-generation pricing oracle for one threshold of one
// run: it finds the quorum minimizing Σ_{x∈Q} cost[x] subject to the
// f-resilient vote constraint, by dynamic programming over sites in
// descending vote order with state (members chosen capped at f, resilient
// votes capped at q): O(n·f·q) time. The vote order, the DP table and every
// scratch slice are allocated once, so a call allocates only the quorum it
// returns.
type pricer struct {
	votes []int
	q, f  int
	order []int     // sites by descending vote
	dp    []float64 // n+1 layers of (f+1)·(q+1) states
	drop  []float64 // minimalization keys
	set   []int     // the argmin before minimalization
	ord   []int     // minimalizeQuorum scratch
}

func newPricer(votes []int, q, f int) *pricer {
	n := len(votes)
	p := &pricer{
		votes: votes, q: q, f: f,
		order: make([]int, n),
		dp:    make([]float64, (n+1)*(f+1)*(q+1)),
		drop:  make([]float64, n),
		set:   make([]int, 0, n),
		ord:   make([]int, n),
	}
	for i := range p.order {
		p.order[i] = i
	}
	sort.SliceStable(p.order, func(a, b int) bool { return votes[p.order[a]] > votes[p.order[b]] })
	return p
}

// price returns the minimum-cost minimal quorum and its cost; costs must be
// ≥ 0. ok is false when no f-resilient quorum exists.
func (p *pricer) price(cost []float64) (Quorum, float64, bool) {
	votes, order, q, f := p.votes, p.order, p.q, p.f
	n := len(votes)
	ss := q + 1
	layer := (f + 1) * ss
	// dp[i][k][s]: min cost among the first i sites with min(chosen, f) = k
	// and resilient votes min(sum, q) = s. Layered so an exact backward walk
	// recovers the argmin.
	dp := func(i int) []float64 { return p.dp[i*layer:][:layer] }
	inf := math.Inf(1)
	first := dp(0)
	for j := range first {
		first[j] = inf
	}
	first[0] = 0
	at := func(k, s int) int { return k*ss + s }
	for i := 0; i < n; i++ {
		v, c := votes[order[i]], cost[order[i]]
		cur, next := dp(i), dp(i+1)
		copy(next, cur) // skip site i
		for k := 0; k <= f; k++ {
			for s := 0; s < ss; s++ {
				from := cur[at(k, s)]
				if from == inf {
					continue
				}
				var k2, s2 int
				if k < f {
					k2, s2 = k+1, s // lands in the top-f slots
				} else {
					k2, s2 = f, min(s+v, q)
				}
				if t := from + c; t < next[at(k2, s2)] {
					next[at(k2, s2)] = t
				}
			}
		}
	}
	if dp(n)[at(f, q)] == inf {
		return nil, 0, false
	}
	// Walk back through the layers; float comparisons are exact because the
	// same sums are recomputed from the same operands.
	set := p.set[:0]
	k, s := f, q
	for i := n; i > 0; i-- {
		here, prev := dp(i)[at(k, s)], dp(i-1)
		if here == prev[at(k, s)] {
			continue // skipped
		}
		v, c := votes[order[i-1]], cost[order[i-1]]
		set = append(set, order[i-1])
		if k == f {
			// Either the resilient transition from (f, sp) with
			// min(q, sp+v) = s, or the site filled the last top-f slot
			// (transition from (f-1, s)). The capped state s = q admits a
			// window of predecessors; s < q pins sp = s−v exactly.
			lo, hi := max(s-v, 0), s-v
			if s == q {
				hi = q
			}
			found := false
			for sp := lo; sp <= hi; sp++ {
				if prev[at(f, sp)]+c == here {
					s, found = sp, true
					break
				}
			}
			if !found && f > 0 && prev[at(f-1, s)]+c == here {
				k, found = f-1, true
			}
			if !found {
				return nil, 0, false // unreachable; defensive
			}
		} else {
			k--
		}
	}
	sort.Ints(set)
	// Minimalize, shedding the most expensive removable members first (the
	// DP can carry zero-cost riders).
	for _, x := range set {
		p.drop[x] = -cost[x]
	}
	set = minimalizeQuorum(votes, q, f, set, p.drop, p.ord)
	total := 0.0
	for _, x := range set {
		total += cost[x]
	}
	return append(Quorum(nil), set...), total, true
}
