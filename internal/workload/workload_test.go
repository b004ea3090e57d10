package workload

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// validate checks a pattern over a horizon: α(t) must stay in [0, 1].
func validate(p Pattern, horizon float64, samples int) error {
	if samples <= 0 || horizon <= 0 {
		return fmt.Errorf("workload: bad validation args")
	}
	for i := 0; i <= samples; i++ {
		t := horizon * float64(i) / float64(samples)
		a := p.Alpha(t)
		if math.IsNaN(a) || a < 0 || a > 1 {
			return fmt.Errorf("workload: α(%g) = %g out of [0,1]", t, a)
		}
	}
	return nil
}

func TestConstant(t *testing.T) {
	p := Constant(0.75)
	if p.Alpha(0) != 0.75 || p.Alpha(1e9) != 0.75 {
		t.Fatal("constant pattern not constant")
	}
	if err := validate(p, 100, 10); err != nil {
		t.Fatal(err)
	}
}

func TestDiurnal(t *testing.T) {
	p := Diurnal{Period: 24, Mean: 0.5, Amplitude: 0.4}
	if err := validate(p, 240, 1000); err != nil {
		t.Fatal(err)
	}
	peak := p.Alpha(6)    // sin(π/2) = 1
	trough := p.Alpha(18) // sin(3π/2) = −1
	if math.Abs(peak-0.9) > 1e-9 || math.Abs(trough-0.1) > 1e-9 {
		t.Fatalf("peak %g trough %g", peak, trough)
	}
	// Excess amplitude clamps rather than leaving [0,1].
	wild := Diurnal{Period: 24, Mean: 0.5, Amplitude: 0.9}
	if err := validate(wild, 48, 500); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	if err := validate(Constant(0.5), 0, 10); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if err := validate(Constant(0.5), 10, 0); err == nil {
		t.Fatal("zero samples accepted")
	}
	type bad struct{ Pattern }
	b := Constant(2) // out of range
	if err := validate(b, 10, 10); err == nil {
		t.Fatal("out-of-range pattern accepted")
	}
	_ = bad{}
}

func TestGeneratorTracksPattern(t *testing.T) {
	g := NewGenerator(Constant(0.7), 3)
	for i := 0; i < 100000; i++ {
		g.IsRead(float64(i))
	}
	if math.Abs(g.ObservedAlpha()-0.7) > 0.01 {
		t.Fatalf("observed α %g", g.ObservedAlpha())
	}
	empty := NewGenerator(Constant(0.5), 1)
	if empty.ObservedAlpha() != 0 {
		t.Fatal("empty generator α")
	}
}

func TestGeneratorFollowsAlternation(t *testing.T) {
	// All reads outside the flash, all writes inside it: the generator
	// follows a pattern that alternates every 100 steps.
	p := FlashCrowd{Base: 1, Flash: 0, Start: 100, Duration: 100, Every: 200, RateBoost: 1}
	g := NewGenerator(p, 7)
	reads, writes := 0, 0
	for i := 0; i < 1000; i++ {
		t1 := float64(i % 100)     // first half-cycle
		t2 := 100 + float64(i%100) // second half-cycle
		if g.IsRead(t1) {
			reads++
		}
		if g.IsRead(t2) {
			writes++
		}
	}
	if reads != 1000 {
		t.Fatalf("high phase reads %d", reads)
	}
	if writes != 0 {
		t.Fatalf("low phase reads %d", writes)
	}
}

func TestQuickPatternsBounded(t *testing.T) {
	f := func(period, mean, amp, t uint16) bool {
		p := Diurnal{
			Period:    float64(period%1000) + 1,
			Mean:      float64(mean%100) / 100,
			Amplitude: float64(amp%200) / 100,
		}
		a := p.Alpha(float64(t))
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlashCrowdBounds(t *testing.T) {
	f := FlashCrowd{Base: 0.3, Flash: 0.95, Start: 100, Duration: 20, Every: 200, RateBoost: 5}
	// Outside any flash: base α, rate factor exactly 1.
	for _, tt := range []float64{0, 99, 120, 299, 320} {
		if f.Alpha(tt) != 0.3 || f.Rate(tt) != 1 {
			t.Fatalf("t=%g: outside flash got α=%g rate=%g", tt, f.Alpha(tt), f.Rate(tt))
		}
	}
	// Inside flashes (recurring every 200): boosted α and rate.
	for _, tt := range []float64{100, 119, 300, 319, 500} {
		if f.Alpha(tt) != 0.95 || f.Rate(tt) != 5 {
			t.Fatalf("t=%g: inside flash got α=%g rate=%g", tt, f.Alpha(tt), f.Rate(tt))
		}
	}
	// The rate factor is bounded by exactly [1, RateBoost] everywhere.
	for i := 0; i <= 4000; i++ {
		r := f.Rate(float64(i) / 4)
		if r != 1 && r != 5 {
			t.Fatalf("rate(%g) = %g escaped {1, RateBoost}", float64(i)/4, r)
		}
	}
	if err := validate(f, 1000, 2000); err != nil {
		t.Fatal(err)
	}
}

func TestFlashCrowdOneShot(t *testing.T) {
	f := FlashCrowd{Base: 0.5, Flash: 1, Start: 50, Duration: 10, RateBoost: 3}
	if f.Alpha(55) != 1 || f.Rate(55) != 3 {
		t.Fatal("inside one-shot flash")
	}
	if f.Alpha(60) != 0.5 || f.Rate(60) != 1 {
		t.Fatal("one-shot flash did not end")
	}
	if f.Alpha(1e6) != 0.5 {
		t.Fatal("one-shot flash recurred")
	}
	// Zero duration is never in flash.
	z := FlashCrowd{Base: 0.4, Flash: 0.9, Start: 0, Duration: 0, RateBoost: 2}
	if z.Alpha(0) != 0.4 || z.Rate(0) != 1 {
		t.Fatal("zero-duration flash fired")
	}
}

func TestConstantRate(t *testing.T) {
	if ConstantRate(2.5).Rate(0) != 2.5 || ConstantRate(2.5).Rate(1e9) != 2.5 {
		t.Fatal("constant rate not constant")
	}
}

func TestGeneratorDeterministicUnderSeed(t *testing.T) {
	// Identical seeds replay the identical decision stream over a
	// nonstationary pattern; different seeds diverge.
	p := FlashCrowd{Base: 0.3, Flash: 0.9, Start: 50, Duration: 25, Every: 100, RateBoost: 4}
	a, b := NewGenerator(p, 42), NewGenerator(p, 42)
	diffSeed := NewGenerator(p, 43)
	diverged := false
	for i := 0; i < 5000; i++ {
		tt := float64(i)
		ra, rb := a.IsRead(tt), b.IsRead(tt)
		if ra != rb {
			t.Fatalf("t=%g: same-seed generators diverged", tt)
		}
		if ra != diffSeed.IsRead(tt) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("seeds 42 and 43 produced identical streams")
	}
}

func TestDiurnalMeanAlphaOverPeriod(t *testing.T) {
	// Sampled exactly over whole periods, the sinusoid's deviations
	// cancel: the empirical mean α converges to Mean with only the
	// Bernoulli noise left.
	p := Diurnal{Period: 100, Mean: 0.6, Amplitude: 0.35}
	// Exact check on the pattern itself: the α samples over one period
	// average to Mean up to numerical error.
	sum := 0.0
	const n = 100000 // many whole periods worth of evenly spaced samples
	for i := 0; i < n; i++ {
		sum += p.Alpha(float64(i) * 100 / float64(n) * 100)
	}
	if got := sum / n; math.Abs(got-0.6) > 1e-3 {
		t.Fatalf("analytic mean α over whole periods = %g, want 0.6", got)
	}
	// And the generator realizes it.
	g := NewGenerator(p, 9)
	for i := 0; i < 200000; i++ {
		g.IsRead(math.Mod(float64(i)*0.1, 100) + float64(i/1000)*100)
	}
	if math.Abs(g.ObservedAlpha()-0.6) > 0.01 {
		t.Fatalf("observed mean α %g, want 0.6±0.01", g.ObservedAlpha())
	}
}

func TestArrivalsDeterministicAndScaled(t *testing.T) {
	f := FlashCrowd{Base: 0.5, Flash: 0.5, Start: 100, Duration: 50, RateBoost: 6}
	a, b := NewArrivals(f, 4, 5), NewArrivals(f, 4, 5)
	baseSum, flashSum := 0, 0
	for i := 0; i < 2000; i++ {
		tt := math.Mod(float64(i), 200) // half the steps inside the one-shot window...
		na, nb := a.At(tt), b.At(tt)
		if na != nb {
			t.Fatalf("t=%g: same-seed arrivals diverged", tt)
		}
		if na < 0 {
			t.Fatalf("negative arrival count %d", na)
		}
		if tt >= 100 && tt < 150 {
			flashSum += na
		} else {
			baseSum += na
		}
	}
	// 500 flash draws at mean 24 vs 1500 base draws at mean 4: the flash
	// mean per step must sit clearly above the base mean per step.
	flashMean := float64(flashSum) / 500
	baseMean := float64(baseSum) / 1500
	if flashMean < 4*baseMean {
		t.Fatalf("flash rate %.2f not clearly above base rate %.2f", flashMean, baseMean)
	}
	if baseMean < 3 || baseMean > 5 {
		t.Fatalf("base mean %.2f strays from 4", baseMean)
	}
	if flashMean < 20 || flashMean > 28 {
		t.Fatalf("flash mean %.2f strays from 24", flashMean)
	}
	// Nil rate pattern: constant factor 1.
	c := NewArrivals(nil, 2, 7)
	sum := 0
	for i := 0; i < 5000; i++ {
		sum += c.At(float64(i))
	}
	if m := float64(sum) / 5000; m < 1.8 || m > 2.2 {
		t.Fatalf("nil-rate arrivals mean %.2f, want ~2", m)
	}
}

func TestArrivalsPanicsOnNegativeMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative mean accepted")
		}
	}()
	NewArrivals(nil, -1, 1)
}
