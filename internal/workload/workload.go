// Package workload describes time-varying access patterns — the "shifting
// pattern of data access" the paper's dynamic quorum reassignment (§4.3)
// exists to track. A Pattern maps simulation time to the instantaneous
// read fraction α(t); generators draw per-access read/write decisions
// from it.
package workload

import (
	"fmt"
	"math"

	"quorumkit/internal/rng"
)

// Pattern yields the read fraction at a point in simulated time.
type Pattern interface {
	// Alpha returns α(t) ∈ [0, 1].
	Alpha(t float64) float64
}

// Constant is a fixed read fraction (the paper's §5 workloads).
type Constant float64

// Alpha implements Pattern.
func (c Constant) Alpha(float64) float64 { return float64(c) }

// Diurnal is a sinusoidal day/night pattern: read-heavy at the peak,
// write-heavy in the trough.
type Diurnal struct {
	Period    float64 // cycle length ("one day")
	Mean      float64 // average read fraction
	Amplitude float64 // peak deviation; Mean±Amplitude must stay in [0,1]
}

// Alpha implements Pattern.
func (d Diurnal) Alpha(t float64) float64 {
	a := d.Mean + d.Amplitude*math.Sin(2*math.Pi*t/d.Period)
	return clamp01(a)
}

// RatePattern yields a multiplicative request-rate factor at a point in
// simulated time: 1 is the baseline arrival rate, 3 a threefold surge.
// Patterns that also implement RatePattern describe full nonstationary
// workloads — shifts of both the read mix and the load.
type RatePattern interface {
	// Rate returns the rate factor at time t (must be >= 0).
	Rate(t float64) float64
}

// ConstantRate is a fixed rate factor (the stationary baseline).
type ConstantRate float64

// Rate implements RatePattern.
func (c ConstantRate) Rate(float64) float64 { return float64(c) }

// FlashCrowd models sudden surges: outside a flash window the workload is
// read fraction Base at rate factor 1; inside it the read fraction jumps
// to Flash and the rate to RateBoost — the "sudden rate × α shift" of a
// viral read burst. Windows of the given duration recur every Every steps
// starting at Start; Every = 0 makes the flash a one-shot.
type FlashCrowd struct {
	Base      float64 // read fraction outside flashes
	Flash     float64 // read fraction inside flashes
	Start     float64 // first flash onset
	Duration  float64 // flash length
	Every     float64 // recurrence period (0: one-shot)
	RateBoost float64 // rate factor inside flashes (>= 0)
}

// inFlash reports whether t falls inside a flash window.
func (f FlashCrowd) inFlash(t float64) bool {
	if t < f.Start || f.Duration <= 0 {
		return false
	}
	since := t - f.Start
	if f.Every > 0 {
		since = math.Mod(since, f.Every)
	}
	return since < f.Duration
}

// Alpha implements Pattern.
func (f FlashCrowd) Alpha(t float64) float64 {
	if f.inFlash(t) {
		return clamp01(f.Flash)
	}
	return clamp01(f.Base)
}

// Rate implements RatePattern.
func (f FlashCrowd) Rate(t float64) float64 {
	if f.inFlash(t) {
		return f.RateBoost
	}
	return 1
}

// Arrivals draws per-step operation counts from a rate pattern: the count
// at step t is Poisson with mean meanPerStep × rate(t). Deterministic
// under a fixed seed.
type Arrivals struct {
	rate RatePattern
	mean float64
	src  *rng.Source
}

// NewArrivals binds a rate pattern to an arrival stream. A nil rate
// pattern means a constant factor of 1. It panics on a negative mean
// (generators are built from trusted test/CLI configuration).
func NewArrivals(rp RatePattern, meanPerStep float64, seed uint64) *Arrivals {
	if meanPerStep < 0 {
		panic(fmt.Sprintf("workload: NewArrivals meanPerStep=%g", meanPerStep))
	}
	if rp == nil {
		rp = ConstantRate(1)
	}
	return &Arrivals{rate: rp, mean: meanPerStep, src: rng.New(seed)}
}

// At draws the operation count for step t.
func (a *Arrivals) At(t float64) int {
	return a.src.Poisson(a.mean * a.rate.Rate(t))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Generator draws read/write decisions from a pattern.
type Generator struct {
	pattern Pattern
	src     *rng.Source
	reads   int64
	total   int64
}

// NewGenerator binds a pattern to a decision stream.
func NewGenerator(p Pattern, seed uint64) *Generator {
	return &Generator{pattern: p, src: rng.New(seed)}
}

// IsRead draws the next access type at time t.
func (g *Generator) IsRead(t float64) bool {
	g.total++
	if g.src.Bernoulli(g.pattern.Alpha(t)) {
		g.reads++
		return true
	}
	return false
}

// ObservedAlpha returns the realized read fraction so far (0 if no draws).
func (g *Generator) ObservedAlpha() float64 {
	if g.total == 0 {
		return 0
	}
	return float64(g.reads) / float64(g.total)
}
