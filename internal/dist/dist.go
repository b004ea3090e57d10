// Package dist implements probability distributions over component sizes —
// the f_i(v) of the paper — including the closed forms given in §4.2 for
// ring, fully-connected, and single-bus networks, Gilbert's Rel(m,r)
// recursion for the all-sites-communicate probability of a random graph,
// and a Monte-Carlo estimator for general topologies (exact computation is
// #P-complete in general, as the paper proves in its reference [14]).
//
// A PMF indexes probability by vote count v = 0..T; entry 0 is the
// probability that the site is down (the paper regards a down site as a
// member of a component of size zero).
package dist

import (
	"fmt"
	"math"

	"quorumkit/internal/graph"
	"quorumkit/internal/rng"
)

// PMF is a probability mass function over component vote counts 0..len-1.
type PMF []float64

// Validate checks that the PMF has no negative entries and sums to 1 within
// tol. It returns a descriptive error otherwise.
func (p PMF) Validate(tol float64) error {
	sum := 0.0
	for v, x := range p {
		if x < -tol {
			return fmt.Errorf("dist: negative mass %g at v=%d", x, v)
		}
		sum += x
	}
	if math.Abs(sum-1) > tol {
		return fmt.Errorf("dist: total mass %g, want 1", sum)
	}
	return nil
}

// Normalize scales the PMF in place to sum to 1 (no-op on zero mass) and
// returns it.
func (p PMF) Normalize() PMF {
	sum := 0.0
	for _, x := range p {
		sum += x
	}
	if sum == 0 {
		return p
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// Mixture returns Σ w[i]·pmfs[i]. All PMFs must have equal length; weights
// need not sum to one (the caller normalizes if desired). This is step 2 of
// the paper's Figure 1: r(v) = Σ r_i · f_i(v).
func Mixture(weights []float64, pmfs []PMF) PMF {
	if len(weights) != len(pmfs) {
		panic(fmt.Sprintf("dist: Mixture got %d weights for %d pmfs", len(weights), len(pmfs)))
	}
	if len(pmfs) == 0 {
		return nil
	}
	n := len(pmfs[0])
	out := make(PMF, n)
	for i, f := range pmfs {
		if len(f) != n {
			panic(fmt.Sprintf("dist: Mixture pmf %d has length %d, want %d", i, len(f), n))
		}
		w := weights[i]
		for v, x := range f {
			out[v] += w * x
		}
	}
	return out
}

// Uniform returns the uniform weight vector 1/n used when access requests
// are submitted uniformly at random to every site.
func Uniform(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return w
}

// logFactCache memoizes ln(k!) values; index is k.
var logFactCache = []float64{0, 0}

// logFact returns ln(k!).
func logFact(k int) float64 {
	for len(logFactCache) <= k {
		n := len(logFactCache)
		logFactCache = append(logFactCache, logFactCache[n-1]+math.Log(float64(n)))
	}
	return logFactCache[k]
}

// LogBinom returns ln C(n,k), or -Inf when the coefficient is zero.
func LogBinom(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return logFact(n) - logFact(k) - logFact(n-k)
}

// checkProb panics unless x is a probability in [0,1].
func checkProb(name string, x float64) {
	if math.IsNaN(x) || x < 0 || x > 1 {
		panic(fmt.Sprintf("dist: %s=%g is not a probability", name, x))
	}
}

// Ring returns the paper's closed-form component-size density f_i(v) for a
// ring of n sites with one copy and one vote per site, site reliability p
// and link reliability r. By symmetry the density is identical for every
// site i. Indices run v = 0..n.
func Ring(n int, p, r float64) PMF {
	if n < 3 {
		panic(fmt.Sprintf("dist: Ring n=%d (need >= 3)", n))
	}
	checkProb("p", p)
	checkProb("r", r)
	f := make(PMF, n+1)
	f[0] = 1 - p
	for v := 1; v <= n; v++ {
		fv := float64(v) * math.Pow(p, float64(v)) * math.Pow(r, float64(v-1))
		switch {
		case v == n:
			// All sites up; ring intact or exactly one link down.
			f[v] = fv*(1-r) + math.Pow(p, float64(n))*math.Pow(r, float64(n))
		case v == n-1:
			// One site excluded: it is down, or up with both its links down.
			f[v] = fv * ((1 - p) + p*(1-r)*(1-r))
		default:
			// Interior segment: both boundaries blocked (next link down or
			// next site down), probability (1-pr) each.
			f[v] = fv * (1 - p*r) * (1 - p*r)
		}
	}
	return f
}

// Rel computes Gilbert's recursive probability that all m sites of a
// fully-connected network can communicate, assuming sites never fail and
// each link is up independently with probability r:
//
//	Rel(m,r) = 1 − Σ_{i=1}^{m-1} C(m-1,i-1) (1−r)^{i(m−i)} Rel(i,r)
//
// The returned slice rel[0..m] holds Rel(i,r) for every i ≤ m (rel[0] is 1
// by convention).
func Rel(m int, r float64) []float64 {
	if m < 0 {
		panic(fmt.Sprintf("dist: Rel m=%d", m))
	}
	checkProb("r", r)
	rel := make([]float64, m+1)
	rel[0] = 1
	if m == 0 {
		return rel
	}
	rel[1] = 1
	lq := math.Log1p(-r) // ln(1-r); -Inf when r = 1
	for k := 2; k <= m; k++ {
		sum := 0.0
		for i := 1; i < k; i++ {
			var term float64
			if r == 1 {
				term = 0
			} else {
				term = math.Exp(LogBinom(k-1, i-1)+float64(i*(k-i))*lq) * rel[i]
			}
			sum += term
		}
		v := 1 - sum
		// Clamp tiny negative excursions from floating-point cancellation.
		if v < 0 {
			v = 0
		}
		rel[k] = v
	}
	return rel
}

// Complete returns the closed-form density f_i(v) for a fully-connected
// network of n sites (one vote each), site reliability p, link reliability
// r, using Gilbert's Rel:
//
//	f_i(v) = C(n−1,v−1) p^v ((1−p) + p(1−r)^v)^{n−v} Rel(v,r),  v ≥ 1
//	f_i(0) = 1 − p
func Complete(n int, p, r float64) PMF {
	if n < 1 {
		panic(fmt.Sprintf("dist: Complete n=%d", n))
	}
	checkProb("p", p)
	checkProb("r", r)
	rel := Rel(n, r)
	f := make(PMF, n+1)
	f[0] = 1 - p
	lp := math.Log(p)
	for v := 1; v <= n; v++ {
		blocked := (1 - p) + p*math.Pow(1-r, float64(v))
		var logOutside float64
		if n-v > 0 {
			logOutside = float64(n-v) * math.Log(blocked)
		}
		logTerm := LogBinom(n-1, v-1) + float64(v)*lp + logOutside
		f[v] = math.Exp(logTerm) * rel[v]
	}
	// The closed form does not sum exactly to 1: configurations are
	// partitioned exactly, so any residual is floating-point error only.
	return f
}

// BusKillsSites returns the density for a single-bus network in which no
// site can function while the bus is down (bus reliability r, site
// reliability p): every functioning configuration requires the bus, and all
// up sites then form one component.
func BusKillsSites(n int, p, r float64) PMF {
	if n < 1 {
		panic(fmt.Sprintf("dist: BusKillsSites n=%d", n))
	}
	checkProb("p", p)
	checkProb("r", r)
	f := make(PMF, n+1)
	f[0] = (1 - r) + r*(1-p) // bus down, or bus up with site i down
	for v := 1; v <= n; v++ {
		f[v] = r * math.Exp(LogBinom(n-1, v-1)+float64(v)*math.Log(p)+float64(n-v)*math.Log(1-p))
	}
	return f
}

// BusIndependentSites returns the density for a single-bus network in which
// a bus failure leaves sites running but mutually isolated: with the bus
// down an up site is a component of size 1.
func BusIndependentSites(n int, p, r float64) PMF {
	if n < 1 {
		panic(fmt.Sprintf("dist: BusIndependentSites n=%d", n))
	}
	checkProb("p", p)
	checkProb("r", r)
	f := make(PMF, n+1)
	f[0] = 1 - p
	for v := 1; v <= n; v++ {
		f[v] = r * math.Exp(LogBinom(n-1, v-1)+float64(v)*math.Log(p)+float64(n-v)*math.Log(1-p))
	}
	f[1] += p * (1 - r) // bus down, site i up and isolated
	return f
}

// MonteCarlo estimates the per-site density f_i(v) of an arbitrary topology
// by sampling independent up/down configurations (site reliability p, link
// reliability r) and measuring the vote count of each site's component.
// It returns one PMF per site, each of length state-total-votes+1.
//
// This estimator is the off-line analogue of the on-line approximation of
// §4.2 and serves as ground truth for topologies without a closed form.
func MonteCarlo(g *graph.Graph, votes []int, p, r float64, samples int, src *rng.Source) []PMF {
	checkProb("p", p)
	checkProb("r", r)
	if samples <= 0 {
		panic(fmt.Sprintf("dist: MonteCarlo samples=%d", samples))
	}
	st := graph.NewState(g, votes)
	T := st.TotalVotes()
	out := make([]PMF, g.N())
	for i := range out {
		out[i] = make(PMF, T+1)
	}
	for s := 0; s < samples; s++ {
		for i := 0; i < g.N(); i++ {
			if src.Bernoulli(p) {
				st.RepairSite(i)
			} else {
				st.FailSite(i)
			}
		}
		for l := 0; l < g.M(); l++ {
			if src.Bernoulli(r) {
				st.RepairLink(l)
			} else {
				st.FailLink(l)
			}
		}
		for i := 0; i < g.N(); i++ {
			out[i][st.VotesAt(i)]++
		}
	}
	inv := 1 / float64(samples)
	for i := range out {
		for v := range out[i] {
			out[i][v] *= inv
		}
	}
	return out
}
