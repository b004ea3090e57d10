package core

import "math"

// This file implements the reduced-evaluation searches the paper suggests in
// §4.1 for step 4 of Figure 1: a golden-section search over the integer
// lattice and a Brent-style successive-parabolic-interpolation search. Both
// exploit the paper's empirical observation (and the Ahamad–Ammar analytic
// result the paper cites) that A(α, ·) is typically monotone or unimodal
// with its maximum at an endpoint.
//
// Exhaustive search is O(T) and always exact; these searches are worthwhile
// when availability evaluations are expensive — e.g. when every probe
// triggers a round of on-line density collection — and are exact on
// unimodal inputs. Both always probe the two endpoints, so on the
// frequently-occurring endpoint-optimal instances they are exact even when
// the interior is not unimodal.

// OptimizeGolden maximizes A(α, ·) by golden-section search on the integer
// lattice [1, ⌊T/2⌋], plus explicit endpoint probes. On unimodal inputs it
// returns the global maximum using O(log T) evaluations.
func (m Model) OptimizeGolden(alpha float64) Result {
	checkAlpha(alpha)
	evals := 0
	cache := map[int]float64{}
	eval := func(q int) float64 {
		if a, ok := cache[q]; ok {
			return a
		}
		a := m.Availability(alpha, q)
		cache[q] = a
		evals++
		return a
	}

	lo, hi := 1, m.MaxReadQuorum()
	bestQ, bestA := lo, eval(lo)
	if a := eval(hi); a > bestA {
		bestQ, bestA = hi, a
	}

	// Golden-section: maintain interior probes x1 < x2 inside (lo, hi).
	const invPhi = 0.6180339887498949
	a, b := float64(lo), float64(hi)
	x1 := int(math.Round(b - (b-a)*invPhi))
	x2 := int(math.Round(a + (b-a)*invPhi))
	for hi-lo > 2 {
		if x1 <= lo {
			x1 = lo + 1
		}
		if x2 >= hi {
			x2 = hi - 1
		}
		if x1 >= x2 {
			break
		}
		f1, f2 := eval(x1), eval(x2)
		if f1 >= f2 {
			hi = x2
		} else {
			lo = x1
		}
		a, b = float64(lo), float64(hi)
		x1 = int(math.Round(b - (b-a)*invPhi))
		x2 = int(math.Round(a + (b-a)*invPhi))
	}
	for q := lo; q <= hi; q++ {
		if v := eval(q); v > bestA {
			bestQ, bestA = q, v
		}
	}
	for q, v := range cache {
		if v > bestA || (v == bestA && q < bestQ) {
			bestQ, bestA = q, v
		}
	}
	return m.result(bestQ, bestA, evals)
}

// OptimizeParabolic maximizes A(α, ·) by successive parabolic interpolation
// (the idea behind Brent's method, which the paper points to in Numerical
// Recipes), safeguarded by golden-section steps when the parabola is
// uncooperative. Endpoints are always probed.
func (m Model) OptimizeParabolic(alpha float64) Result {
	checkAlpha(alpha)
	evals := 0
	cache := map[int]float64{}
	eval := func(q int) float64 {
		if a, ok := cache[q]; ok {
			return a
		}
		a := m.Availability(alpha, q)
		cache[q] = a
		evals++
		return a
	}

	lo, hi := 1, m.MaxReadQuorum()
	eval(lo)
	eval(hi)
	mid := (lo + hi) / 2
	if mid != lo && mid != hi {
		eval(mid)
	}

	// Track the three best distinct probes for parabola fitting.
	for iter := 0; iter < 40 && hi-lo > 2; iter++ {
		// Current incumbent: ties (a plateau) go to the smallest q, so the
		// probe path does not depend on map iteration order.
		bq, ba := lo, math.Inf(-1)
		for q, v := range cache {
			if v > ba || (v == ba && q < bq) {
				bq, ba = q, v
			}
		}
		// Fit a parabola through (bq-δ, bq, bq+δ) when possible; otherwise
		// bisect the larger gap around the incumbent (golden safeguard).
		next := -1
		l, r := bq-1, bq+1
		if l >= lo && r <= hi {
			fl, fb, fr := eval(l), ba, eval(r)
			den := (fl - 2*fb + fr)
			if den < 0 { // concave: vertex is a max
				shift := 0.5 * (fl - fr) / den
				cand := int(math.Round(float64(bq) - shift))
				if cand >= lo && cand <= hi {
					if _, seen := cache[cand]; !seen {
						next = cand
					}
				}
			}
		}
		if next == -1 {
			// Golden safeguard: probe midpoint of the widest unexplored span
			// adjacent to the incumbent.
			if bq-lo > hi-bq {
				next = (lo + bq) / 2
			} else {
				next = (bq + hi) / 2
			}
			if _, seen := cache[next]; seen {
				// Shrink the bracket toward the incumbent and continue.
				if bq-lo > hi-bq {
					lo = next
				} else {
					hi = next
				}
				continue
			}
		}
		v := eval(next)
		// Update the bracket: keep the side containing the incumbent.
		if v > cache[bq] {
			bq = next
		}
		if next < bq {
			lo = max(lo, next-1)
		} else if next > bq {
			hi = min(hi, next+1)
		}
	}
	for q := lo; q <= hi; q++ {
		eval(q)
	}
	bestQ, bestA := 1, math.Inf(-1)
	for q, v := range cache {
		if v > bestA || (v == bestA && q < bestQ) {
			bestQ, bestA = q, v
		}
	}
	return m.result(bestQ, bestA, evals)
}
