package stats

import "math"

// PhiEstimator is a φ-accrual suspicion estimator in the style of
// Hayashibara et al.: it keeps a sliding window of observed heartbeat
// round-trip latencies and, given an elapsed time since the last answer,
// reports the suspicion level
//
//	φ(e) = −log10 P(X > e)
//
// under a Gaussian fit of the window. φ grows continuously with silence:
// φ = 1 means "if the peer were alive, the odds of this much silence are
// 1 in 10"; φ = 8 means 1 in 10⁸. Unlike a fixed miss-count rule, the
// threshold adapts to the peer's *observed* latency regime, which is what
// lets a detector distinguish a slow peer (large mean, large timeout) from
// a dead one — the gray-failure case the fixed rule misclassifies.
//
// The estimator is a plain value type with no locking; callers serialize
// access (in the cluster runtimes, the operation slot does). All state is a
// pure function of the observation sequence, so deterministic runtimes get
// deterministic φ values.
type PhiEstimator struct {
	win  []float64
	next int
	fill int
}

// phiMinSamples is the bootstrap threshold: below it the fit is
// meaningless and callers should fall back to a fixed rule.
const phiMinSamples = 3

// sigmaFloorAbs and sigmaFloorRel floor the fitted deviation so a window
// of identical samples (a perfectly regular network) does not produce a
// zero-width distribution and an infinite φ on the first hiccup.
const (
	sigmaFloorAbs = 0.25
	sigmaFloorRel = 0.1
)

// NewPhiEstimator returns an estimator over a sliding window of the given
// size (floored at 4).
func NewPhiEstimator(window int) *PhiEstimator {
	if window < 4 {
		window = 4
	}
	return &PhiEstimator{win: make([]float64, window)}
}

// Observe records one heartbeat round-trip latency sample.
func (e *PhiEstimator) Observe(latency float64) {
	e.win[e.next] = latency
	e.next = (e.next + 1) % len(e.win)
	if e.fill < len(e.win) {
		e.fill++
	}
}

// Ready reports whether the window holds enough samples for the fit to be
// usable; until then callers should use their bootstrap rule.
func (e *PhiEstimator) Ready() bool { return e.fill >= phiMinSamples }

// Stats returns the windowed mean and the floored standard deviation.
func (e *PhiEstimator) Stats() (mean, sigma float64) {
	if e.fill == 0 {
		return 0, sigmaFloorAbs
	}
	sum := 0.0
	for i := 0; i < e.fill; i++ {
		sum += e.win[i]
	}
	mean = sum / float64(e.fill)
	ss := 0.0
	for i := 0; i < e.fill; i++ {
		d := e.win[i] - mean
		ss += d * d
	}
	sigma = math.Sqrt(ss / float64(e.fill))
	if floor := sigmaFloorRel * mean; sigma < floor {
		sigma = floor
	}
	if sigma < sigmaFloorAbs {
		sigma = sigmaFloorAbs
	}
	return mean, sigma
}

// phiCap bounds φ so a deeply improbable silence stays finite (float64
// tail probabilities underflow around 1e-308).
const phiCap = 300

// Phi returns the suspicion level for an elapsed time e since the last
// answer: −log10 of the Gaussian upper-tail probability P(X > e) under the
// windowed fit. Returns 0 until the estimator is Ready.
func (e *PhiEstimator) Phi(elapsed float64) float64 {
	if !e.Ready() {
		return 0
	}
	mean, sigma := e.Stats()
	// P(X > e) = erfc((e−μ)/(σ√2))/2; erfc underflows to 0 near z ≈ 27,
	// far past any useful threshold, so cap rather than chase the tail.
	z := (elapsed - mean) / (sigma * math.Sqrt2)
	p := 0.5 * math.Erfc(z)
	if p <= 0 || math.IsNaN(p) {
		return phiCap
	}
	phi := -math.Log10(p)
	if phi < 0 {
		return 0
	}
	if phi > phiCap {
		return phiCap
	}
	return phi
}
