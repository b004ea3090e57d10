package dist

import (
	"fmt"
)

// RingHetero generalizes the paper's §4.2 ring closed form to heterogeneous
// reliabilities: ps[i] is site i's reliability and rs[i] the reliability of
// the link between sites i and (i+1) mod n. It returns one density per
// site in O(n²) per site by summing over the exact left/right extension of
// the run containing the site:
//
//	f_i(1+j+k) = P[left run = j] · P[right run = k] · P[both ends blocked]
//
// with the two wrap-around cases (all sites but one, and the whole ring)
// handled specially because their end events share a component. For
// homogeneous inputs it reproduces Ring exactly; for small heterogeneous
// rings it matches exhaustive enumeration (see the tests).
func RingHetero(ps, rs []float64) []PMF {
	n := len(ps)
	if n < 3 {
		panic(fmt.Sprintf("dist: RingHetero n=%d (need >= 3)", n))
	}
	if len(rs) != n {
		panic(fmt.Sprintf("dist: RingHetero got %d link reliabilities for %d sites", len(rs), n))
	}
	for i, p := range ps {
		checkProb(fmt.Sprintf("ps[%d]", i), p)
		checkProb(fmt.Sprintf("rs[%d]", i), rs[i])
	}

	site := func(i int) int { return ((i % n) + n) % n }
	linkRight := func(i int) float64 { return rs[site(i)] }  // link i — i+1
	linkLeft := func(i int) float64 { return rs[site(i-1)] } // link i−1 — i

	out := make([]PMF, n)
	for i := 0; i < n; i++ {
		f := make(PMF, n+1)
		f[0] = 1 - ps[i]

		// leftExt[j]: probability the run extends exactly over j sites to
		// the left of i (links and sites up), NOT counting the terminator.
		// Valid for j ≤ n-2 (beyond that the ends meet).
		leftRun := make([]float64, n-1)  // leftRun[j] = Π up-links/sites
		rightRun := make([]float64, n-1) // likewise to the right
		leftRun[0], rightRun[0] = 1, 1
		for j := 1; j <= n-2; j++ {
			leftRun[j] = leftRun[j-1] * linkLeft(i-(j-1)) * ps[site(i-j)]
			rightRun[j] = rightRun[j-1] * linkRight(i+(j-1)) * ps[site(i+j)]
		}
		// Terminators: the extension past the end fails because the next
		// link is down or the next site is down.
		leftBlock := func(j int) float64 {
			return 1 - linkLeft(i-j)*ps[site(i-j-1)]
		}
		rightBlock := func(k int) float64 {
			return 1 - linkRight(i+k)*ps[site(i+k+1)]
		}

		pi := ps[i]
		for j := 0; j <= n-2; j++ {
			for k := 0; j+k <= n-2 && k <= n-2; k++ {
				v := 1 + j + k
				switch {
				case v <= n-2:
					// The two terminators involve disjoint components.
					f[v] += pi * leftRun[j] * rightRun[k] * leftBlock(j) * rightBlock(k)
				case v == n-1:
					// Exactly one site m is excluded; both terminators
					// involve m and its two links, which coincide: m is
					// down, or up with both of its links down.
					m := site(i + k + 1) // == site(i-j-1)
					block := (1 - ps[m]) + ps[m]*(1-linkRight(i+k))*(1-linkLeft(i-j))
					f[v] += pi * leftRun[j] * rightRun[k] * block
				}
			}
		}

		// v = n: all sites up and at most one link down.
		allSites := 1.0
		for _, p := range ps {
			allSites *= p
		}
		allLinks := 1.0
		for _, r := range rs {
			allLinks *= r
		}
		sumOneDown := 0.0
		for l := 0; l < n; l++ {
			term := 1 - rs[l]
			for l2 := 0; l2 < n; l2++ {
				if l2 != l {
					term *= rs[l2]
				}
			}
			sumOneDown += term
		}
		f[n] = allSites * (allLinks + sumOneDown)
		out[i] = f
	}
	return out
}
