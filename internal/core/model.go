// Package core implements the paper's primary contribution: the optimal
// quorum assignment algorithm of Figure 1, its write-constrained and
// weighted enhancements (§5.4), and the on-line estimator of the
// component-size densities f_i(v) (§4.2) that makes the algorithm usable on
// topologies where exact computation is #P-complete.
//
// The pipeline mirrors the paper exactly:
//
//	Step 1  obtain α, r_i, w_i and per-site densities f_i(v)
//	Step 2  r(v) = Σ r_i·f_i(v),  w(v) = Σ w_i·f_i(v)        → NewModel
//	Step 3  A(α,q_r) = α·Σ_{k≥q_r} r(k) + (1−α)·Σ_{k≥T−q_r+1} w(k)
//	                                                          → Availability
//	Step 4  maximize over q_r ∈ [1, ⌊T/2⌋], set q_w = T−q_r+1 → Optimize*
package core

import (
	"fmt"
	"math"

	"quorumkit/internal/dist"
	"quorumkit/internal/quorum"
)

// Model holds the access-weighted component-size distributions r(v) and
// w(v) for a system with T total votes, with tail sums precomputed so that
// every availability query is O(1).
type Model struct {
	T int
	// tailR[k] = Σ_{v=k}^{T} r(v); tailR has length T+2 with tailR[T+1]=0.
	tailR []float64
	tailW []float64
}

// NewModel builds a Model from the read- and write-access site weights and
// the per-site densities (step 2 of Figure 1). Both weight slices must sum
// to 1 over the sites; pass nil for the uniform distribution. Every density
// must have length T+1 where T = len(f[i])-1.
func NewModel(rWeights, wWeights []float64, f []dist.PMF) (Model, error) {
	if len(f) == 0 {
		return Model{}, fmt.Errorf("core: no site densities")
	}
	n := len(f)
	if rWeights == nil {
		rWeights = dist.Uniform(n)
	}
	if wWeights == nil {
		wWeights = dist.Uniform(n)
	}
	if len(rWeights) != n || len(wWeights) != n {
		return Model{}, fmt.Errorf("core: got %d sites but %d read and %d write weights",
			n, len(rWeights), len(wWeights))
	}
	r := dist.Mixture(rWeights, f)
	w := dist.Mixture(wWeights, f)
	if err := r.Validate(1e-6); err != nil {
		return Model{}, fmt.Errorf("core: read mixture: %w", err)
	}
	if err := w.Validate(1e-6); err != nil {
		return Model{}, fmt.Errorf("core: write mixture: %w", err)
	}
	return ModelFromRW(r, w)
}

// ModelFromRW builds a Model directly from the aggregated densities r(v)
// and w(v) (both of length T+1).
func ModelFromRW(r, w dist.PMF) (Model, error) {
	if len(r) < 2 || len(r) != len(w) {
		return Model{}, fmt.Errorf("core: densities have lengths %d and %d", len(r), len(w))
	}
	T := len(r) - 1
	m := Model{T: T, tailR: tails(r), tailW: tails(w)}
	return m, nil
}

// ModelFromSingleDensity builds a Model for the common symmetric case where
// every site has the same density f and accesses are uniform, so
// r(v) = w(v) = f(v) (paper §4, note under step 2).
func ModelFromSingleDensity(f dist.PMF) (Model, error) {
	return ModelFromRW(f, f)
}

func tails(p dist.PMF) []float64 {
	t := make([]float64, len(p)+1)
	for v := len(p) - 1; v >= 0; v-- {
		t[v] = t[v+1] + p[v]
	}
	return t
}

// tail returns Σ_{v=k}^{T}; k is clamped into [0, T+1].
func tailAt(t []float64, k int) float64 {
	if k < 0 {
		k = 0
	}
	if k >= len(t) {
		return 0
	}
	return t[k]
}

// ReadAvail returns R(q_r) = P[read granted] = Σ_{k=q_r}^{T} r(k).
func (m Model) ReadAvail(qr int) float64 { return tailAt(m.tailR, qr) }

// WriteAvail returns W(q_w) = P[write granted] = Σ_{k=q_w}^{T} w(k).
func (m Model) WriteAvail(qw int) float64 { return tailAt(m.tailW, qw) }

// WriteAvailForReadQuorum returns the write availability under the paper's
// pairing q_w = T − q_r + 1.
func (m Model) WriteAvailForReadQuorum(qr int) float64 {
	return m.WriteAvail(m.T - qr + 1)
}

// Availability evaluates A(α, q_r) — step 3 of Figure 1.
func (m Model) Availability(alpha float64, qr int) float64 {
	checkAlpha(alpha)
	return alpha*m.ReadAvail(qr) + (1-alpha)*m.WriteAvailForReadQuorum(qr)
}

// WeightedAvailability evaluates the §5.4 weighted objective
// A(ω, α, q) = α·R(q) + ω·(1−α)·W(T−q+1), where ω ≥ 0 is the weight given
// to writes. ω = 1 recovers Availability.
func (m Model) WeightedAvailability(omega, alpha float64, qr int) float64 {
	checkAlpha(alpha)
	if omega < 0 {
		panic(fmt.Sprintf("core: negative write weight %g", omega))
	}
	return alpha*m.ReadAvail(qr) + omega*(1-alpha)*m.WriteAvailForReadQuorum(qr)
}

// AvailabilityFor evaluates the availability of an arbitrary assignment,
// not necessarily in the q_w = T−q_r+1 family: α·R(q_r) + (1−α)·W(q_w).
func (m Model) AvailabilityFor(alpha float64, a quorum.Assignment) float64 {
	checkAlpha(alpha)
	return alpha*m.ReadAvail(a.QR) + (1-alpha)*m.WriteAvail(a.QW)
}

// Improves is the §4.3 install rule: the optimum want replaces the
// assignment current only when the two differ and the model predicts at
// least hysteresis more availability from want.
func (m Model) Improves(alpha float64, want, current quorum.Assignment, hysteresis float64) bool {
	return want != current && m.AvailabilityFor(alpha, want)-m.AvailabilityFor(alpha, current) >= hysteresis
}

// MaxReadQuorum returns ⌊T/2⌋, the top of the search range.
func (m Model) MaxReadQuorum() int { return m.T / 2 }

func checkAlpha(alpha float64) {
	if math.IsNaN(alpha) || alpha < 0 || alpha > 1 {
		panic(fmt.Sprintf("core: read fraction α=%g out of [0,1]", alpha))
	}
}

// Curve returns A(α, q_r) for every q_r in [1, ⌊T/2⌋]; index 0 of the
// result corresponds to q_r = 1. This is the data behind each curve of the
// paper's Figures 2–7. Callers sweeping many α values should prefer
// CurveInto with a reused destination slice.
func (m Model) Curve(alpha float64) []float64 {
	return m.CurveInto(alpha, nil)
}

// Result is the outcome of an optimization: the chosen assignment, the
// availability it achieves, and how many availability evaluations the
// search used (the paper's motivation for golden-section/Brent searches is
// reducing this count).
type Result struct {
	Assignment   quorum.Assignment
	Availability float64
	Evaluations  int
}

// ArgMax is step 4 of Figure 1, the one scan every exhaustive search over
// the family shares: the first q_r in [lo, hi] maximizing f, so ties go to
// the smaller read quorum. An empty range returns (lo, −Inf).
func ArgMax(lo, hi int, f func(qr int) float64) (qr int, best float64) {
	qr, best = lo, math.Inf(-1)
	for q := lo; q <= hi; q++ {
		if a := f(q); a > best {
			qr, best = q, a
		}
	}
	return qr, best
}

// result builds the Result of a search that chose qr with availability a
// after evals evaluations.
func (m Model) result(qr int, a float64, evals int) Result {
	return Result{
		Assignment:   quorum.Assignment{QR: qr, QW: m.T - qr + 1},
		Availability: a,
		Evaluations:  evals,
	}
}

// Optimize runs the reference exhaustive search (step 4 of Figure 1): scan
// every q_r in [1, ⌊T/2⌋]. Ties prefer the smaller q_r, which favors read
// availability; the paper observes optima are frequently at the endpoints.
func (m Model) Optimize(alpha float64) Result {
	checkAlpha(alpha)
	qr, a := ArgMax(1, m.MaxReadQuorum(), func(qr int) float64 { return m.Availability(alpha, qr) })
	return m.result(qr, a, m.MaxReadQuorum())
}

// OptimizeWeighted is Optimize for the weighted objective of §5.4.
func (m Model) OptimizeWeighted(omega, alpha float64) Result {
	checkAlpha(alpha)
	qr, a := ArgMax(1, m.MaxReadQuorum(), func(qr int) float64 { return m.WeightedAvailability(omega, alpha, qr) })
	return m.result(qr, a, m.MaxReadQuorum())
}

// MinReadQuorumForWrite returns the smallest q_r whose paired write quorum
// achieves write availability at least minWrite — i.e. the §5.4 constraint
// A(0, q_r) ≥ A_w. Because W(T−q_r+1) is non-decreasing in q_r the feasible
// set is an up-set; it returns an error when even q_r = ⌊T/2⌋ cannot meet
// the constraint.
func (m Model) MinReadQuorumForWrite(minWrite float64) (int, error) {
	if minWrite < 0 || minWrite > 1 {
		return 0, fmt.Errorf("core: write constraint %g out of [0,1]", minWrite)
	}
	lo, hi := 1, m.MaxReadQuorum()
	if m.Availability(0, hi) < minWrite {
		return 0, fmt.Errorf("core: write availability %.4f at q_r=%d cannot reach constraint %.4f",
			m.Availability(0, hi), hi, minWrite)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if m.Availability(0, mid) >= minWrite {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// OptimizeConstrained maximizes A(α, q_r) subject to the minimum write
// throughput A(0, q_r) ≥ minWrite (§5.4's preferred enhancement).
func (m Model) OptimizeConstrained(alpha, minWrite float64) (Result, error) {
	checkAlpha(alpha)
	qmin, err := m.MinReadQuorumForWrite(minWrite)
	if err != nil {
		return Result{}, err
	}
	qr, a := ArgMax(qmin, m.MaxReadQuorum(), func(qr int) float64 { return m.Availability(alpha, qr) })
	return m.result(qr, a, m.MaxReadQuorum()-qmin+1), nil
}
