package core

import (
	"fmt"

	"quorumkit/internal/dist"
)

// This file is the large-N assignment kernel: the full availability curve
// A(α, q_r) for every q_r ∈ [1, ⌊T/2⌋] in a single O(T) suffix-sum pass,
// with zero allocations when the caller supplies the destination slice.
//
// The naive evaluation of step 3 of Figure 1,
//
//	A(α, q_r) = α·Σ_{k≥q_r} r(k) + (1−α)·Σ_{k≥T−q_r+1} w(k),
//
// costs O(T) per read quorum and therefore O(T²) for the family sweep the
// optimizer and the figure generators need. Both tail sums are suffix sums
// of the densities, so one backward pass over v = T…1 yields every value:
// when the pass reaches v = T−q_r+1 the write tail for q_r is complete, and
// when it reaches v = q_r the read tail is. Because T−q_r+1 > q_r for every
// q_r in the search range, the write part of each curve entry is always
// written before the read part is added.

// AvailabilityCurveInto computes A(α, q_r) for every q_r ∈ [1, ⌊T/2⌋]
// directly from the aggregated densities r(v) and w(v) (both of length
// T+1), without building a Model. The result is written into dst, which is
// grown if needed and returned; passing a slice with capacity ⌊T/2⌋ makes
// the call allocation-free. Entry i corresponds to q_r = i+1.
//
// The accumulation order matches Model's precomputed tails exactly, so the
// results are bit-identical to calling Model.Availability per quorum.
func AvailabilityCurveInto(alpha float64, r, w dist.PMF, dst []float64) []float64 {
	checkAlpha(alpha)
	if len(r) < 2 || len(r) != len(w) {
		panic(fmt.Sprintf("core: curve densities have lengths %d and %d", len(r), len(w)))
	}
	T := len(r) - 1
	K := T / 2
	if cap(dst) < K {
		dst = make([]float64, K)
	}
	dst = dst[:K]
	sR, sW := 0.0, 0.0
	for v := T; v >= 1; v-- {
		sR += r[v]
		sW += w[v]
		// sW now equals Σ_{k≥v} w(k): it completes the write tail of the
		// quorum pair whose q_w is v.
		if qr := T - v + 1; qr <= K {
			dst[qr-1] = (1 - alpha) * sW
		}
		if v <= K {
			dst[v-1] += alpha * sR
		}
	}
	return dst
}

// OptimizeCurve selects the best read quorum from a family curve produced
// by AvailabilityCurveInto or CurveInto: the smallest-q_r argmax, the same
// tie rule as Model.Optimize (entry i corresponds to q_r = i+1). An empty
// curve (T < 2 leaves no searchable quorum) returns q_r = 1 with -Inf
// availability, matching Model.Optimize's degenerate answer.
func OptimizeCurve(curve []float64) (qr int, avail float64) {
	return ArgMax(1, len(curve), func(qr int) float64 { return curve[qr-1] })
}

// CurveInto writes A(α, q_r) for every q_r ∈ [1, ⌊T/2⌋] into dst using the
// Model's precomputed tails, growing dst only when its capacity is short.
// Entry i corresponds to q_r = i+1. Reusing one destination slice across
// calls makes a full α-grid sweep allocation-free.
func (m Model) CurveInto(alpha float64, dst []float64) []float64 {
	checkAlpha(alpha)
	K := m.MaxReadQuorum()
	if cap(dst) < K {
		dst = make([]float64, K)
	}
	dst = dst[:K]
	for i := range dst {
		qr := i + 1
		dst[i] = alpha*m.tailR[qr] + (1-alpha)*m.tailW[m.T-qr+1]
	}
	return dst
}
