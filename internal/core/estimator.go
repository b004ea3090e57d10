package core

import (
	"fmt"

	"quorumkit/internal/dist"
	"quorumkit/internal/stats"
)

// Estimator approximates the per-site component-size densities f_i(v)
// on-line, as described in §4.2 of the paper: each site periodically records
// the total number of votes possessed by the sites in its component (a
// figure it obtains for free while collecting votes for ordinary accesses).
// If past history is indicative of future behaviour, the recorded histogram
// converges to f_i.
//
// Two recording modes are supported:
//
//   - Count mode (the paper's): Observe adds weight 1 per observation.
//   - Time-weighted mode: ObserveFor adds the duration for which a
//     component size was in effect. By PASTA (Poisson arrivals see time
//     averages) the two converge to the same density under the paper's
//     Poisson access model, but the time-weighted estimate has far lower
//     variance per simulated event.
//
// An optional exponential decay ages out old observations so the estimator
// tracks shifting system characteristics — the property that lets the
// algorithm drive the dynamic quorum reassignment protocol of §4.3.
type Estimator struct {
	t int
	// One slab holds every site's histogram: site i's weight for v votes is
	// weights[i*(t+1)+v], its total totals[i].
	weights []float64
	totals  []float64
	decay   float64 // multiplicative aging per decay step; 1 = keep everything
}

// NewEstimator creates an estimator for n sites in a system with T total
// votes. Observed vote totals must lie in [0, T].
func NewEstimator(n, T int) *Estimator {
	if n <= 0 || T <= 0 {
		panic(fmt.Sprintf("core: NewEstimator(n=%d, T=%d)", n, T))
	}
	return &Estimator{t: T, weights: make([]float64, n*(T+1)), totals: make([]float64, n), decay: 1}
}

// site returns site i's histogram row.
func (e *Estimator) site(i int) []float64 {
	return e.weights[i*(e.t+1) : (i+1)*(e.t+1)]
}

// add records weight w for a site's component holding `votes` votes; the
// row's bounds reject votes outside [0, T]. Small enough to inline into the
// simulator's per-site loop.
func (e *Estimator) add(site, votes int, w float64) {
	if w < 0 {
		panic("core: negative observation weight")
	}
	e.site(site)[votes] += w
	e.totals[site] += w
}

// SetDecay sets the aging factor applied by Age: weights are multiplied by
// decay ∈ (0, 1]. decay = 1 disables aging.
func (e *Estimator) SetDecay(decay float64) {
	if decay <= 0 || decay > 1 {
		panic(fmt.Sprintf("core: decay %g out of (0,1]", decay))
	}
	e.decay = decay
}

// Age applies one decay step to every site's history.
func (e *Estimator) Age() {
	if e.decay == 1 {
		return
	}
	for i := range e.weights {
		e.weights[i] *= e.decay
	}
	for i := range e.totals {
		e.totals[i] *= e.decay
	}
}

// Observe records that an access submitted at the site found `votes` total
// votes in its component (0 when the site was down — the paper regards a
// down site as a component of size zero).
func (e *Estimator) Observe(site, votes int) {
	e.add(site, votes, 1)
}

// ObserveFor records that the site's component held `votes` votes for a
// duration dt of simulated time (time-weighted mode).
func (e *Estimator) ObserveFor(site, votes int, dt float64) {
	e.add(site, votes, dt)
}

// N returns the number of sites.
func (e *Estimator) N() int { return len(e.totals) }

// T returns the vote total.
func (e *Estimator) T() int { return e.t }

// Weight returns the total observation weight recorded for a site.
func (e *Estimator) Weight(site int) float64 { return e.totals[site] }

// Density returns the estimated f_i for a site. With no observations the
// result is the zero PMF (callers should check Weight first).
func (e *Estimator) Density(site int) dist.PMF {
	f := make(dist.PMF, e.t+1)
	e.densityInto(f, site)
	return f
}

// densityInto writes site's normalized histogram into the zeroed f, leaving
// it zero when nothing has been recorded.
func (e *Estimator) densityInto(f dist.PMF, site int) {
	total := e.totals[site]
	if total == 0 {
		return
	}
	for v, w := range e.site(site) {
		f[v] = w / total
	}
}

// OperationalDensity returns the estimate of f_i conditioned on the site
// being operational, rescaled by site reliability p as in the paper's
// footnote 4: sites cannot observe their own down time, so an estimator fed
// only by accesses at up sites measures f'_i with A = p·A'. Given p, the
// unconditional density is p·f'_i(v) for v ≥ 1 plus mass 1−p at v = 0.
// The footnote's point — that the optimal q_r is identical under A and A' —
// is verified in the tests.
func (e *Estimator) OperationalDensity(site int, p float64) dist.PMF {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("core: reliability %g out of [0,1]", p))
	}
	f := e.Density(site)
	out := make(dist.PMF, len(f))
	// Redistribute: the observed histogram conditions on v ≥ 1 (an up site
	// always sees at least its own votes). Guard anyway against recorded
	// zeros (e.g. if the caller recorded down time explicitly).
	cond := f.Clone()
	cond[0] = 0
	cond.Normalize()
	for v := 1; v < len(out); v++ {
		out[v] = p * cond[v]
	}
	out[0] = 1 - p
	return out
}

// Model assembles the Figure-1 model from the current estimates, weighting
// site i's density by the access fractions r_i and w_i (nil for uniform).
// Sites with no recorded history contribute a point mass at zero votes,
// the conservative choice (they deny everything) until data arrives.
func (e *Estimator) Model(rWeights, wWeights []float64) (Model, error) {
	bins := e.t + 1
	slab := make(dist.PMF, len(e.totals)*bins)
	fs := make([]dist.PMF, len(e.totals))
	for i := range fs {
		f := slab[i*bins : (i+1)*bins : (i+1)*bins]
		if e.totals[i] == 0 {
			f[0] = 1
		} else {
			e.densityInto(f, i)
		}
		fs[i] = f
	}
	return NewModel(rWeights, wWeights, fs)
}

// Reset clears all recorded history.
func (e *Estimator) Reset() {
	clear(e.weights)
	clear(e.totals)
}

// Merge adds another estimator's observations into e. Both must cover the
// same sites and vote total. In a distributed deployment each site
// maintains its own row; Merge aggregates the rows exchanged during the
// vote-collection rounds into the network-wide view the optimizer needs.
func (e *Estimator) Merge(o *Estimator) error {
	if e.t != o.t || e.N() != o.N() {
		return fmt.Errorf("core: merge shape mismatch: (%d sites, T=%d) vs (%d, T=%d)",
			e.N(), e.t, o.N(), o.t)
	}
	for i := 0; i < o.N(); i++ {
		for v, w := range o.site(i) {
			if w > 0 {
				e.add(i, v, w)
			}
		}
	}
	return nil
}

// SurvEstimator estimates the distribution of the vote total of the
// *largest* component, the quantity needed to optimize under the SURV
// metric (paper §3, footnote 3: substitute the largest-component
// distribution for f_i in step 1 of the algorithm).
type SurvEstimator struct {
	hist *stats.Histogram
}

// NewSurvEstimator creates a SURV estimator for a system with T votes.
func NewSurvEstimator(T int) *SurvEstimator {
	return &SurvEstimator{hist: stats.NewHistogram(T + 1)}
}

// Observe records the current largest-component vote total with weight 1.
func (s *SurvEstimator) Observe(maxVotes int) { s.hist.Add(maxVotes, 1) }

// ObserveFor records the largest-component vote total for a duration.
func (s *SurvEstimator) ObserveFor(maxVotes int, dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("core: negative duration %g", dt))
	}
	s.hist.Add(maxVotes, dt)
}

// Model returns the Figure-1 model under the SURV metric: both r(v) and
// w(v) are replaced by the largest-component distribution.
func (s *SurvEstimator) Model() (Model, error) {
	f := dist.PMF(s.hist.Normalize())
	return ModelFromSingleDensity(f)
}
