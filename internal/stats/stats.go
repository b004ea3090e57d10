// Package stats provides the statistical substrate used by the simulation
// study: streaming mean/variance accumulators (Welford) and batch-means
// confidence intervals with Student-t critical values.
//
// The paper reports availabilities as the mean over 5–18 batches of one
// million accesses each, with a 95% confidence interval of half-width at
// most ±0.5%. BatchMeans reproduces exactly that methodology.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford is a numerically stable streaming accumulator for mean and
// variance. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 if no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// tTable95 holds two-sided 95% Student-t critical values indexed by degrees
// of freedom 1..30; beyond 30 the normal value 1.96 is used.
var tTable95 = []float64{
	0, // df 0: unused
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom.
func TCritical95(df int) float64 {
	if df <= 0 {
		return math.Inf(1)
	}
	if df < len(tTable95) {
		return tTable95[df]
	}
	return 1.960
}

// Interval is a symmetric confidence interval around a point estimate.
type Interval struct {
	Mean     float64
	HalfSize float64 // half-width of the interval
	N        int     // number of batches/observations
}

// String formats the interval in the style used by the paper,
// e.g. "0.7213 ± 0.0041 (n=8)".
func (iv Interval) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d)", iv.Mean, iv.HalfSize, iv.N)
}

// BatchMeans accumulates per-batch means and produces a 95% confidence
// interval for the steady-state mean, as in the paper's §5.2.
// The zero value is ready to use.
type BatchMeans struct {
	w Welford
}

// AddBatch records the mean of one batch.
func (b *BatchMeans) AddBatch(mean float64) { b.w.Add(mean) }

// Interval95 returns the 95% confidence interval for the mean across
// batches. With fewer than two batches the half-size is +Inf.
func (b *BatchMeans) Interval95() Interval {
	n := b.w.N()
	if n < 2 {
		return Interval{Mean: b.w.Mean(), HalfSize: math.Inf(1), N: n}
	}
	t := TCritical95(n - 1)
	return Interval{Mean: b.w.Mean(), HalfSize: t * b.w.StdErr(), N: n}
}

// Converged reports whether the 95% CI half-width is at most the target.
// The paper runs batches (5 to 18) until the half-width is ≤ 0.005.
func (b *BatchMeans) Converged(target float64) bool {
	if b.w.N() < 2 {
		return false
	}
	return b.Interval95().HalfSize <= target
}

// ChaosCounters is the observability snapshot of a fault-injected protocol
// run: transport-level fault counts plus operation-level retry/abort and
// crash-recovery accounting. The zero value is ready to use; runtimes
// accumulate into one and expose copies through their stats snapshots.
type ChaosCounters struct {
	// Transport faults actually injected.
	MsgDropped    int64
	MsgDuplicated int64
	MsgReordered  int64
	MsgDelayed    int64

	// Operation-level outcomes.
	Retries       int64 // attempts beyond the first
	Aborts        int64 // operations given up after exhausting retries
	Timeouts      int64 // attempts that lost expected replies to faults
	NoQuorum      int64 // attempts cleanly denied for lack of votes
	Indeterminate int64 // write attempts that applied to only some copies

	// Crash-recovery.
	Crashes    int64 // injected coordinator crashes
	Recoveries int64 // crashed nodes that rejoined with durable state
	Amnesias   int64 // recoveries that found durable state lost or corrupt
	Rejoins    int64 // amnesiac nodes readmitted by state transfer

	// Total simulated backoff accumulated across retries, in abstract
	// ticks (the deterministic runtime has no clock; the concurrent
	// runtime scales ticks to a real duration).
	BackoffTicks int64
}

// String renders the counters as a compact two-line report.
func (c ChaosCounters) String() string {
	return fmt.Sprintf(
		"msgs: dropped=%d duplicated=%d reordered=%d delayed=%d\n"+
			"ops:  retries=%d aborts=%d timeouts=%d no-quorum=%d indeterminate=%d crashes=%d recoveries=%d amnesias=%d rejoins=%d backoff=%d",
		c.MsgDropped, c.MsgDuplicated, c.MsgReordered, c.MsgDelayed,
		c.Retries, c.Aborts, c.Timeouts, c.NoQuorum, c.Indeterminate,
		c.Crashes, c.Recoveries, c.Amnesias, c.Rejoins, c.BackoffTicks)
}

// Median of a float64 slice (used in reporting); returns 0 for empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
