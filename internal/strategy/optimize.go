package strategy

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"quorumkit/internal/core"
	"quorumkit/internal/dist"
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
// tolerances are meaningful. When the minimal-quorum pool is too large to
// enumerate, the capacity objectives switch to column generation: solve
// over a seeded pool, then repeatedly price the most-violating quorum
// column with a min-cost vote-knapsack DP (O(n·q) per round, on one pricer
// per side that owns its vote order and DP table for the whole run) and
// append it to the sparse revised simplex, which warm-starts from its
// optimal basis, until pricing proves no quorum anywhere has negative
// reduced cost. That proof is what keeps strategy search tractable — and
// still *certified* — at 1000+ sites.

// ErrLoadLimitInfeasible reports that no strategy meets the latency
// optimizer's per-site load limit; the returned Result carries the Farkas
// certificate proving it.
var ErrLoadLimitInfeasible = errors.New("strategy: no strategy meets the load limit")

// ErrResilienceInfeasible reports that the f-resilient pool is empty: no
// quorum keeps its threshold after every possible f-site loss, so the
// resilient capacity LP has no columns at all.
var ErrResilienceInfeasible = errors.New("strategy: no resilient quorum exists")

// Options tunes the optimizers. The zero value picks sensible defaults.
type Options struct {
	// MaxEnumerate caps exhaustive minimal-quorum enumeration; above it the
	// capacity optimizers switch to column generation. Default 2048.
	MaxEnumerate int
	// TargetGap, when positive, lets column generation stop once the
	// certified bound gap (Value − Bound)/Value falls below it, trading
	// exact pricing convergence for time on very large systems. The bound
	// is still certified; only Priced=false records the early stop.
	TargetGap float64
}

func (o Options) norm() Options {
	if o.MaxEnumerate <= 0 {
		o.MaxEnumerate = 2048
	}
	return o
}

// Column generation's fixed tuning: the cap on rounds, the rotation-seeded
// quorums per side it starts from, and how many diversified columns pricing
// may add per side per round (the first is always the exact
// minimum-reduced-cost column; the rest come from heaviest-member-banned
// reprices).
const (
	cgMaxRounds  = 2000
	cgSeeds      = 16
	cgCandidates = 8
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
	// quorum universe (the Lagrangian column-generation bound
	// obj − violation_R − violation_W; equal to Value when Priced).
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

// readCoef is the load-row coefficient of a read quorum containing x at
// fr-atom j, in rescaled units.
func readCoef(sys System, scale, fr float64, x int) float64 {
	return fr * scale / sys.ReadCap[x]
}

func writeCoef(sys System, scale, fr float64, x int) float64 {
	return (1 - fr) * scale / sys.WriteCap[x]
}

// buildCapacityLP lays out min Σ p_j·L_j with variables
// [readPool | writePool | L_0..L_{J-1}]: two normalization rows, then one
// ≤ 0 row per (fr-atom, site).
func buildCapacityLP(sys System, d FrDist, readPool, writePool []Quorum, scale float64) LP {
	n, nR, nW, J := sys.N(), len(readPool), len(writePool), len(d.Fr)
	nv := nR + nW + J
	lp := LP{NumVars: nv, Cost: make([]float64, nv), Rows: make([]Row, 2+n*J)}
	for j := 0; j < J; j++ {
		lp.Cost[nR+nW+j] = d.P[j]
	}
	for i := range lp.Rows {
		lp.Rows[i] = Row{Coef: make([]float64, nv), Sense: LE}
	}
	lp.Rows[0].Sense, lp.Rows[0].RHS = EQ, 1
	lp.Rows[1].Sense, lp.Rows[1].RHS = EQ, 1
	for r, q := range readPool {
		lp.Rows[0].Coef[r] = 1
		for j, fr := range d.Fr {
			for _, x := range q {
				lp.Rows[loadRow(n, j, x)].Coef[r] = readCoef(sys, scale, fr, x)
			}
		}
	}
	for w, q := range writePool {
		lp.Rows[1].Coef[nR+w] = 1
		for j, fr := range d.Fr {
			for _, x := range q {
				lp.Rows[loadRow(n, j, x)].Coef[nR+w] = writeCoef(sys, scale, fr, x)
			}
		}
	}
	for j := 0; j < J; j++ {
		for x := 0; x < n; x++ {
			lp.Rows[loadRow(n, j, x)].Coef[nR+nW+j] = -1
		}
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
	opts = opts.norm()
	scale := capScale(sys)

	// An overflowing read pool sends both sides to column generation, so
	// the write pool is only enumerated when the read pool is complete.
	readPool, ok := MinimalResilientQuorums(sys.Votes, sys.QR, f, opts.MaxEnumerate)
	var writePool []Quorum
	if ok {
		writePool, ok = MinimalResilientQuorums(sys.Votes, sys.QW, f, opts.MaxEnumerate)
	}
	if ok {
		if len(readPool) == 0 || len(writePool) == 0 {
			return nil, fmt.Errorf("%w (f=%d)", ErrResilienceInfeasible, f)
		}
		lp, _, sol, err := solveCapacityLP(sys, d, readPool, writePool, scale)
		if err != nil {
			return nil, err
		}
		res := assembleCapacity(sys, lp, sol, readPool, writePool, scale)
		res.PoolComplete, res.Priced = true, true
		res.Bound = res.Value
		return res, nil
	}
	return generateCapacity(sys, d, f, scale, opts)
}

// crashPlan builds a feasible starting basis for a capacity LP that skips
// phase 1: put all mass on the first quorum of each pool, set each L_j to
// that pair's bottleneck load, and park slacks everywhere else. Pivoting the
// L columns first (at zero) and the two σ columns after keeps b ≥ 0 exactly
// at every step, so no artificial ever has to climb out of the 2+nJ
// degenerate load rows — the stall that kills a cold phase 1 here.
func crashPlan(sys System, d FrDist, readPool, writePool []Quorum, scale float64) [][2]int {
	n, nR, nW := sys.N(), len(readPool), len(writePool)
	loads := make([]float64, n)
	pairs := make([][2]int, 0, len(d.Fr)+2)
	for j, fr := range d.Fr {
		for i := range loads {
			loads[i] = 0
		}
		for _, x := range readPool[0] {
			loads[x] += readCoef(sys, scale, fr, x)
		}
		for _, x := range writePool[0] {
			loads[x] += writeCoef(sys, scale, fr, x)
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
func solveCapacityLP(sys System, d FrDist, readPool, writePool []Quorum, scale float64) (LP, *simplex, Solution, error) {
	lp := buildCapacityLP(sys, d, readPool, writePool, scale)
	sx, err := newSimplex(lp)
	if err != nil {
		return lp, nil, Solution{}, err
	}
	if err := sx.crash(crashPlan(sys, d, readPool, writePool, scale)); err != nil {
		return lp, nil, Solution{}, err
	}
	sol := sx.solve()
	if sol.Status != StatusOptimal {
		return lp, nil, sol, fmt.Errorf("strategy: capacity LP ended %v", sol.Status)
	}
	return lp, sx, sol, nil
}

// generateCapacity runs restricted-master column generation: solve over a
// seeded pool, price the worst-reduced-cost quorums on each side with the
// knapsack DP, warm-start them into the solver, and repeat until no
// violating column exists (or the certified Lagrangian bound gap falls
// under Options.TargetGap). To keep the master narrow and the arithmetic
// fresh, the pool is periodically *purged* to its basic support and the
// solver rebuilt cold; convergence is only declared on a cold solve, so
// the final certificate never inherits warm-pivot drift.
func generateCapacity(sys System, d FrDist, f int, scale float64, opts Options) (*Result, error) {
	n := sys.N()
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
		if lp, sx, sol, err = solveCapacityLP(sys, d, actR, actW, scale); err != nil {
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
	// basis inverse may carry drift and convergence cannot be declared from it.
	dirty := false
	adds := 0 // warm columns since last rebuild
	maxAdds := 4 * (n + len(d.Fr))
	rcost := make([]float64, n)
	wcost := make([]float64, n)
	priceR := newPricer(sys.Votes, sys.QR, f)
	priceW := newPricer(sys.Votes, sys.QW, f)
	// addQuorum appends one quorum column: its convexity row, then one load
	// row per (fr-atom, member).
	rows := make([]int, 0, 1+n*len(d.Fr))
	vals := make([]float64, 0, 1+n*len(d.Fr))
	addQuorum := func(side int, q Quorum, coef func(System, float64, float64, int) float64) int {
		rows, vals = append(rows[:0], side), append(vals[:0], 1)
		for j, fr := range d.Fr {
			for _, x := range q {
				rows, vals = append(rows, loadRow(n, j, x)), append(vals, coef(sys, scale, fr, x))
			}
		}
		return sx.addColumn(0, rows, vals)
	}
	bound := math.Inf(-1)
	for ; rounds < cgMaxRounds; rounds++ {
		// Per-site pricing costs from the load-row duals λ ≤ 0: a quorum
		// column's reduced cost is Σ_members cost_x − μ_side.
		y := sol.Y
		for x := 0; x < n; x++ {
			rcost[x], wcost[x] = 0, 0
			for j, fr := range d.Fr {
				lam := math.Min(y[loadRow(n, j, x)], 0)
				rcost[x] -= lam * readCoef(sys, scale, fr, x)
				wcost[x] -= lam * writeCoef(sys, scale, fr, x)
			}
		}
		candR := priceR.candidates(rcost, cgCandidates)
		candW := priceW.candidates(wcost, cgCandidates)
		vR, vW := 0.0, 0.0
		if len(candR) > 0 {
			vR = math.Max(0, y[0]-candR[0].cost)
		}
		if len(candW) > 0 {
			vW = math.Max(0, y[1]-candW[0].cost)
		}
		// Lagrangian bound: each side's convexity row carries total mass 1,
		// so new columns can improve the objective by at most the worst
		// violation per side.
		if !dirty {
			bound = math.Max(bound, sol.Obj-vR-vW)
		}
		gap := vR + vW
		converged := gap <= priceTol
		early := !converged && opts.TargetGap > 0 && gap <= opts.TargetGap*math.Abs(sol.Obj)
		if converged || early {
			if dirty {
				// Convergence seen on a warm solve: purge, re-solve cold,
				// and let the next round re-verify pricing against exact
				// duals before declaring victory.
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
		newR := make([]Quorum, 0, len(candR))
		for _, c := range candR {
			if k := "r" + keyOf(c.q); y[0]-c.cost > priceTol/2 && !seen[k] {
				seen[k] = true
				newR = append(newR, c.q)
			}
		}
		newW := make([]Quorum, 0, len(candW))
		for _, c := range candW {
			if k := "w" + keyOf(c.q); y[1]-c.cost > priceTol/2 && !seen[k] {
				seen[k] = true
				newW = append(newW, c.q)
			}
		}
		if len(newR)+len(newW) == 0 {
			// Every violating candidate is already active: duals are
			// degenerate but nothing new exists to add. Re-solve cold if
			// warm, else accept the current bound.
			if dirty {
				purge()
				if err := rebuild(); err != nil {
					return nil, err
				}
				dirty, adds = false, 0
				continue
			}
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
			colR = append(colR, addQuorum(0, q, readCoef))
		}
		for _, q := range newW {
			colW = append(colW, addQuorum(1, q, writeCoef))
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
	if math.IsInf(bound, -1) {
		bound = sol.Obj
	}
	res := assembleCapacity(sys, lp, sol, actR, actW, scale)
	res.Priced = priced
	res.Bound = math.Min(bound, sol.Obj) / scale
	res.Rounds, res.Generated = rounds, generated
	res.Sol.Pivots = pivots + sol.Pivots
	return res, nil
}

// priceCand is one pricing candidate: a quorum and its cost under the
// round's original dual prices.
type priceCand struct {
	q    Quorum
	cost float64
}

// candidates returns up to k candidate columns: the exact minimum-cost
// quorum first, then diversified near-minima obtained by banning the
// heaviest member of the previous candidate and repricing.
func (p *pricer) candidates(cost []float64, k int) []priceCand {
	work := p.work
	copy(work, cost)
	bigM := 1.0
	for _, c := range cost {
		bigM += c
	}
	out := make([]priceCand, 0, k)
	for len(out) < k {
		set, _, ok := p.price(work)
		if !ok {
			break
		}
		// Re-cost under the unperturbed prices; banned members may have
		// been forced back in.
		trueCost := 0.0
		heavy, heavyC := -1, -1.0
		for _, x := range set {
			trueCost += cost[x]
			if cost[x] > heavyC {
				heavy, heavyC = x, cost[x]
			}
		}
		if !slices.ContainsFunc(out, func(c priceCand) bool { return slices.Equal(c.q, set) }) {
			out = append(out, priceCand{set, trueCost})
		}
		if heavy < 0 || work[heavy] >= bigM {
			break
		}
		work[heavy] += bigM
	}
	return out
}

// OptimizeLatency minimizes the expected quorum completion latency subject
// to every site's load staying under loadLimit (per unit throughput) in
// every fr regime. When no strategy fits under the limit it returns the
// Result holding the Farkas infeasibility certificate alongside
// ErrLoadLimitInfeasible.
func OptimizeLatency(sys System, d FrDist, loadLimit float64, opts Options) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	if loadLimit <= 0 || math.IsNaN(loadLimit) || math.IsInf(loadLimit, 0) {
		return nil, fmt.Errorf("strategy: bad load limit %g", loadLimit)
	}
	opts = opts.norm()
	n := sys.N()
	readPool, rOK := MinimalQuorums(sys.Votes, sys.QR, opts.MaxEnumerate)
	writePool, wOK := MinimalQuorums(sys.Votes, sys.QW, opts.MaxEnumerate)
	nR, nW := len(readPool), len(writePool)

	scale := capScale(sys)
	latScale := 0.0
	for _, l := range sys.Latency {
		latScale = math.Max(latScale, l)
	}
	if latScale == 0 {
		latScale = 1
	}
	fbar := d.Mean()
	nv := nR + nW
	lp := LP{NumVars: nv, Cost: make([]float64, nv), Rows: make([]Row, 2+n*len(d.Fr))}
	for i := range lp.Rows {
		lp.Rows[i] = Row{Coef: make([]float64, nv), Sense: LE, RHS: loadLimit * scale}
	}
	lp.Rows[0] = Row{Coef: make([]float64, nv), Sense: EQ, RHS: 1}
	lp.Rows[1] = Row{Coef: make([]float64, nv), Sense: EQ, RHS: 1}
	for r, q := range readPool {
		lp.Rows[0].Coef[r] = 1
		lp.Cost[r] = fbar * q.latency(sys.Latency) / latScale
		for j, fr := range d.Fr {
			for _, x := range q {
				lp.Rows[loadRow(n, j, x)].Coef[r] = readCoef(sys, scale, fr, x)
			}
		}
	}
	for w, q := range writePool {
		lp.Rows[1].Coef[nR+w] = 1
		lp.Cost[nR+w] = (1 - fbar) * q.latency(sys.Latency) / latScale
		for j, fr := range d.Fr {
			for _, x := range q {
				lp.Rows[loadRow(n, j, x)].Coef[nR+w] = writeCoef(sys, scale, fr, x)
			}
		}
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
func BestDeterministic(sys System, d FrDist, opts Options) (Strategy, float64, error) {
	if err := sys.Validate(); err != nil {
		return Strategy{}, 0, err
	}
	if err := d.validate(); err != nil {
		return Strategy{}, 0, err
	}
	opts = opts.norm()
	readPool, rOK := MinimalQuorums(sys.Votes, sys.QR, opts.MaxEnumerate)
	writePool, wOK := MinimalQuorums(sys.Votes, sys.QW, opts.MaxEnumerate)
	if !rOK || !wOK {
		return Strategy{}, 0, fmt.Errorf("strategy: pools too large to enumerate (cap %d)", opts.MaxEnumerate)
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

// FamilyCell is one member of the paper's coterie family sweep.
type FamilyCell struct {
	QR, QW   int
	Avail    float64
	Skipped  bool // availability below the floor; no LP solved
	Capacity float64
}

// OptimizeCapacityOverFamily sweeps the paper's assignment family
// (q_r, T−q_r+1), pre-filtering members by availability using the O(T)
// curve kernel, and solves the capacity LP for each member that clears
// minAvail. rDist and wDist are the aggregated read/write vote densities
// of length T+1 (as produced by internal/dist). It returns the per-member
// cells and the best result.
func OptimizeCapacityOverFamily(sys System, d FrDist, alpha float64, rDist, wDist dist.PMF, minAvail float64, opts Options) ([]FamilyCell, *Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, nil, err
	}
	T := sys.T()
	if len(rDist) != T+1 || len(wDist) != T+1 {
		return nil, nil, fmt.Errorf("strategy: densities have lengths %d/%d, want %d", len(rDist), len(wDist), T+1)
	}
	curve := core.AvailabilityCurveInto(alpha, rDist, wDist, nil)
	cells := make([]FamilyCell, 0, len(curve))
	var best *Result
	for qr := 1; qr <= T/2; qr++ {
		cell := FamilyCell{QR: qr, QW: T - qr + 1, Avail: curve[qr-1]}
		if cell.Avail < minAvail {
			cell.Skipped = true
			cells = append(cells, cell)
			continue
		}
		member := sys
		member.QR, member.QW = cell.QR, cell.QW
		res, err := OptimizeCapacity(member, d, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("strategy: family member q_r=%d: %w", qr, err)
		}
		cell.Capacity = res.Capacity
		if best == nil || res.Capacity > best.Capacity {
			best = res
		}
		cells = append(cells, cell)
	}
	if best == nil {
		return cells, nil, fmt.Errorf("strategy: no family member clears availability %g", minAvail)
	}
	return cells, best, nil
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
	check := func(side string, qs []Quorum, mu float64, coef func(fr float64, x int) float64) error {
		for _, q := range qs {
			rc := -mu
			for j, fr := range d.Fr {
				for _, x := range q {
					rc -= y[loadRow(n, j, x)] * coef(fr, x)
				}
			}
			if rc < -tol {
				return fmt.Errorf("strategy: %s quorum %v has reduced cost %g < 0: solve is not globally optimal",
					side, q, rc)
			}
		}
		return nil
	}
	reads, rOK := MinimalResilientQuorums(sys.Votes, sys.QR, f, 0)
	writes, wOK := MinimalResilientQuorums(sys.Votes, sys.QW, f, 0)
	if !rOK || !wOK {
		return fmt.Errorf("strategy: exhaustive enumeration failed") // max=0 is unlimited; unreachable
	}
	if err := check("read", reads, y[0], func(fr float64, x int) float64 {
		return readCoef(sys, res.Scale, fr, x)
	}); err != nil {
		return err
	}
	return check("write", writes, y[1], func(fr float64, x int) float64 {
		return writeCoef(sys, res.Scale, fr, x)
	})
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
	work  []float64 // candidates' perturbed costs
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
		work:  make([]float64, n),
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
