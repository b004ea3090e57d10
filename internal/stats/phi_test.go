package stats

import (
	"math"
	"testing"
)

func TestPhiNotReadyUntilMinSamples(t *testing.T) {
	e := NewPhiEstimator(8)
	if e.Ready() {
		t.Fatal("empty estimator must not be ready")
	}
	e.Observe(2)
	e.Observe(2)
	if e.Ready() {
		t.Fatal("two samples must not be ready")
	}
	if got := e.Phi(100); got != 0 {
		t.Fatalf("Phi before ready = %g, want 0", got)
	}
	e.Observe(2)
	if !e.Ready() {
		t.Fatal("three samples must be ready")
	}
}

func TestPhiMonotoneInElapsed(t *testing.T) {
	e := NewPhiEstimator(16)
	for i := 0; i < 16; i++ {
		e.Observe(2 + 0.1*float64(i%3))
	}
	prev := -1.0
	for elapsed := 1.0; elapsed <= 40; elapsed += 1.0 {
		phi := e.Phi(elapsed)
		if phi < prev {
			t.Fatalf("phi(%g)=%g < phi(prev)=%g: not monotone", elapsed, phi, prev)
		}
		prev = phi
	}
	if e.Phi(2) > 1 {
		t.Fatalf("phi at the mean should be small, got %g", e.Phi(2))
	}
	if e.Phi(40) < 8 {
		t.Fatalf("phi at 20x the mean should exceed any threshold, got %g", e.Phi(40))
	}
}

func TestPhiAdaptsToSlowRegime(t *testing.T) {
	fast := NewPhiEstimator(16)
	slow := NewPhiEstimator(16)
	for i := 0; i < 16; i++ {
		fast.Observe(2)
		slow.Observe(20)
	}
	// An elapsed silence of 8 slots is deeply suspicious for a 2-slot peer
	// but routine for a 20-slot peer: the adaptive timeout in one number.
	if fast.Phi(8) < 8 {
		t.Fatalf("fast peer at 4x mean silence: phi=%g, want >= 8", fast.Phi(8))
	}
	if slow.Phi(8) > 0.5 {
		t.Fatalf("slow peer well under its mean: phi=%g, want ~0", slow.Phi(8))
	}
}

func TestPhiSigmaFloor(t *testing.T) {
	e := NewPhiEstimator(8)
	for i := 0; i < 8; i++ {
		e.Observe(2) // zero variance
	}
	_, sigma := e.Stats()
	if sigma != sigmaFloorAbs {
		t.Fatalf("sigma = %g, want floored at %g", sigma, sigmaFloorAbs)
	}
	e2 := NewPhiEstimator(8)
	for i := 0; i < 8; i++ {
		e2.Observe(100)
	}
	_, sigma2 := e2.Stats()
	if want := sigmaFloorRel * 100; math.Abs(sigma2-want) > 1e-12 {
		t.Fatalf("sigma = %g, want relative floor %g", sigma2, want)
	}
}

func TestPhiCapAndWindowSlide(t *testing.T) {
	e := NewPhiEstimator(4)
	for i := 0; i < 4; i++ {
		e.Observe(1)
	}
	if got := e.Phi(1e9); got != phiCap {
		t.Fatalf("extreme silence: phi=%g, want cap %g", got, float64(phiCap))
	}
	if got := e.Phi(-5); got != 0 {
		t.Fatalf("elapsed below the mean: phi=%g, want 0", got)
	}
	// Slide the window into a new regime: old samples must age out.
	for i := 0; i < 4; i++ {
		e.Observe(50)
	}
	mean, _ := e.Stats()
	if mean != 50 {
		t.Fatalf("window did not slide: mean=%g, want 50", mean)
	}
	// Tiny windows are floored so the fit stays sane.
	if w := NewPhiEstimator(1); len(w.win) < 4 {
		t.Fatalf("window floor violated: %d", len(w.win))
	}
}

func TestPhiMissCountCrosscheck(t *testing.T) {
	// With a stable fast regime (mean 2, floored sigma), the second silent
	// round crosses phi=8 — the same verdict the default miss-count rule
	// (two missed heartbeats) reaches. The detectors agree on clean deaths and
	// differ exactly on gray (slow-but-alive) peers.
	e := NewPhiEstimator(16)
	for i := 0; i < 16; i++ {
		e.Observe(2)
	}
	oneMiss := e.Phi(1 * 2.0)
	twoMiss := e.Phi(2 * 2.0)
	if oneMiss >= 8 {
		t.Fatalf("one missed interval already past threshold: phi=%g", oneMiss)
	}
	if twoMiss < 8 {
		t.Fatalf("two missed intervals should cross phi=8, got %g", twoMiss)
	}
}
