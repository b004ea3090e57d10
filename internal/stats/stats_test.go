package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if !almostEq(w.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %g", w.Mean())
	}
	// Population variance of this classic data set is 4; sample variance is
	// 32/7.
	if !almostEq(w.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %g", w.Variance())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Fatal("zero-value Welford should report zeros")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Variance() != 0 {
		t.Fatalf("single observation: mean=%g var=%g", w.Mean(), w.Variance())
	}
}

func TestQuickWelfordMeanBounds(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		lo, hi := math.Inf(1), math.Inf(-1)
		count := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				// Extreme magnitudes overflow the delta² term; they are out
				// of scope for a simulator whose observations are
				// probabilities and event counts.
				continue
			}
			w.Add(x)
			count++
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if count == 0 {
			return true
		}
		return w.Mean() >= lo-1e-9 && w.Mean() <= hi+1e-9 && w.Variance() >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTCritical95(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{{1, 12.706}, {4, 2.776}, {10, 2.228}, {17, 2.110}, {30, 2.042}, {100, 1.960}}
	for _, c := range cases {
		if got := TCritical95(c.df); got != c.want {
			t.Fatalf("TCritical95(%d) = %g, want %g", c.df, got, c.want)
		}
	}
	if !math.IsInf(TCritical95(0), 1) {
		t.Fatal("TCritical95(0) should be +Inf")
	}
}

func TestBatchMeansInterval(t *testing.T) {
	var b BatchMeans
	// Five identical batches: zero-width interval.
	for i := 0; i < 5; i++ {
		b.AddBatch(0.72)
	}
	iv := b.Interval95()
	if !almostEq(iv.Mean, 0.72, 1e-12) || iv.HalfSize > 1e-12 {
		t.Fatalf("interval %v", iv)
	}
	if !b.Converged(0.005) {
		t.Fatal("identical batches should be converged")
	}
}

func TestBatchMeansNotConvergedEarly(t *testing.T) {
	var b BatchMeans
	if b.Converged(1) {
		t.Fatal("no batches: cannot be converged")
	}
	b.AddBatch(0.5)
	if b.Converged(1) {
		t.Fatal("one batch: cannot be converged")
	}
	iv := b.Interval95()
	if !math.IsInf(iv.HalfSize, 1) {
		t.Fatalf("one batch interval should have infinite half-size, got %v", iv)
	}
}

func TestBatchMeansSpread(t *testing.T) {
	var b BatchMeans
	for _, x := range []float64{0.70, 0.72, 0.74, 0.71, 0.73} {
		b.AddBatch(x)
	}
	iv := b.Interval95()
	if !almostEq(iv.Mean, 0.72, 1e-12) {
		t.Fatalf("mean %g", iv.Mean)
	}
	// sd = sqrt(0.00025) ≈ 0.01581, se ≈ 0.00707, t(4)=2.776 → hw ≈ 0.01963
	if !almostEq(iv.HalfSize, 2.776*0.0158113883/math.Sqrt(5), 1e-6) {
		t.Fatalf("half-size %g", iv.HalfSize)
	}
}

func TestIntervalString(t *testing.T) {
	iv := Interval{Mean: 0.7213, HalfSize: 0.0041, N: 8}
	if got := iv.String(); got != "0.7213 ± 0.0041 (n=8)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 {
		t.Fatal("median of empty")
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if Median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Fatal("even median")
	}
	// Input must not be mutated.
	xs := []float64{3, 1, 2}
	_ = Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Median mutated its input")
	}
}
