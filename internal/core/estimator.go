package core

import (
	"fmt"

	"quorumkit/internal/dist"
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

// Reset forgets every observation, keeping the decay factor, so one
// estimator can be refilled round after round without allocating.
func (e *Estimator) Reset() {
	clear(e.weights)
	clear(e.totals)
}

// UniformModelInto rebuilds m as Model(nil, nil) builds it — every site
// weighted 1/n, a site with no history a point mass at zero votes — bit for
// bit, including the mixture check, but in m's own buffers: once they have
// grown to T+2 bins it allocates nothing. Under uniform weights the read and
// write mixtures are one and the same density, so m's two tail tables share
// one slice. m must not be shared with a model still in use.
func (e *Estimator) UniformModelInto(m *Model) error {
	bins := e.t + 1
	t := m.tailR
	if cap(t) < bins+1 {
		t = make([]float64, bins+1)
	}
	t = t[:bins+1]
	clear(t)
	// The mixture Σ_i (1/n)·f_i(v), accumulated into t[:bins] site by site
	// in the order (and with the operations) dist.Mixture uses.
	w := 1 / float64(len(e.totals))
	for i, total := range e.totals {
		if total == 0 {
			t[0] += w // no history: f_i is the point mass at zero votes
			continue
		}
		for v, x := range e.site(i) {
			t[v] += w * (x / total)
		}
	}
	if err := dist.PMF(t[:bins]).Validate(1e-6); err != nil {
		return fmt.Errorf("core: read mixture: %w", err)
	}
	// In place, top down, the recurrence tails uses.
	for v := bins - 1; v >= 0; v-- {
		t[v] += t[v+1]
	}
	m.T, m.tailR, m.tailW = e.t, t, t
	return nil
}

// SurvEstimator estimates the distribution of the vote total of the
// *largest* component, the quantity needed to optimize under the SURV
// metric (paper §3, footnote 3: substitute the largest-component
// distribution for f_i in step 1 of the algorithm).
type SurvEstimator struct {
	est *Estimator // one site, whose "component" is the largest one
}

// NewSurvEstimator creates a SURV estimator for a system with T votes.
func NewSurvEstimator(T int) *SurvEstimator {
	return &SurvEstimator{est: NewEstimator(1, T)}
}

// ObserveFor records the largest-component vote total for a duration.
func (s *SurvEstimator) ObserveFor(maxVotes int, dt float64) {
	s.est.ObserveFor(0, maxVotes, dt)
}

// Model returns the Figure-1 model under the SURV metric: both r(v) and
// w(v) are replaced by the largest-component distribution.
func (s *SurvEstimator) Model() (Model, error) {
	return ModelFromSingleDensity(s.est.Density(0))
}
