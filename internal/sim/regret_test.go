package sim

import (
	"math"
	"testing"

	"quorumkit/internal/core"
	"quorumkit/internal/dist"
)

func TestEpochTallyCounts(t *testing.T) {
	e := NewEpochTally(5)
	if e.Ops() != 0 || e.Alpha() != 0 || e.GrantRate() != 0 {
		t.Fatal("fresh tally not empty")
	}
	e.Record(true, 5, true)
	e.Record(true, 3, false)
	e.Record(false, 4, true)
	e.Record(false, 99, true) // clamps to T
	e.Record(false, -1, false)
	if e.Ops() != 5 {
		t.Fatalf("Ops = %d", e.Ops())
	}
	if math.Abs(e.Alpha()-0.4) > 1e-12 {
		t.Fatalf("Alpha = %g", e.Alpha())
	}
	if math.Abs(e.GrantRate()-0.6) > 1e-12 {
		t.Fatalf("GrantRate = %g", e.GrantRate())
	}
	e.Reset()
	if e.Ops() != 0 || e.GrantRate() != 0 {
		t.Fatal("Reset did not clear")
	}
	if b, q := e.OracleAvailability(); b != 0 || q != 0 {
		t.Fatal("empty oracle not zero")
	}
}

func TestEpochTallyOracleFullComponent(t *testing.T) {
	// Every op sees the full component: any valid assignment is always
	// available, so the oracle is exactly 1.
	e := NewEpochTally(5)
	for i := 0; i < 100; i++ {
		e.Record(i%2 == 0, 5, true)
	}
	best, qr := e.OracleAvailability()
	if math.Abs(best-1) > 1e-12 {
		t.Fatalf("oracle = %g, want 1", best)
	}
	if qr < 1 || qr > 2 {
		t.Fatalf("oracle q_r = %d out of family range", qr)
	}
}

func TestEpochTallyOracleMatchesKernel(t *testing.T) {
	// The tally's oracle must equal a direct kernel evaluation of the
	// same empirical densities.
	e := NewEpochTally(7)
	votesOf := []int{7, 7, 5, 4, 4, 3, 7, 6}
	for i, v := range votesOf {
		e.Record(i%4 != 0, v, v >= 4) // α = 3/4
	}
	best, qr := e.OracleAvailability()

	T := 7
	r := make(dist.PMF, T+1)
	w := make(dist.PMF, T+1)
	var nr, nw float64
	for i, v := range votesOf {
		if i%4 != 0 {
			r[v]++
			nr++
		} else {
			w[v]++
			nw++
		}
	}
	for v := range r {
		r[v] /= nr
		w[v] /= nw
	}
	alpha := nr / float64(len(votesOf))
	curve := core.AvailabilityCurveInto(alpha, r, w, nil)
	wantBest, wantQR := curve[0], 1
	for i, a := range curve {
		if a > wantBest {
			wantBest, wantQR = a, i+1
		}
	}
	if best != wantBest || qr != wantQR {
		t.Fatalf("oracle (%g, %d) != kernel (%g, %d)", best, qr, wantBest, wantQR)
	}
}

func TestEpochTallyOracleReadHeavySkew(t *testing.T) {
	// A read-dominant epoch whose reads often see a small component: the
	// oracle must prefer a small read quorum (q_r = 1 beats majority).
	e := NewEpochTally(9)
	for i := 0; i < 90; i++ {
		e.Record(true, 3, false) // reads trapped in a 3-vote component
	}
	for i := 0; i < 10; i++ {
		e.Record(false, 9, true) // rare writes see the full component
	}
	best, qr := e.OracleAvailability()
	if qr != 1 {
		t.Fatalf("oracle picked q_r = %d, want 1 for read-dominant small components", qr)
	}
	// α·1 + (1−α)·P(v=9 on writes) = 0.9 + 0.1 = 1 here.
	if math.Abs(best-1) > 1e-12 {
		t.Fatalf("oracle availability %g", best)
	}
}

func TestEpochTallySingleSidedEpochs(t *testing.T) {
	// Epochs with only reads (or only writes) must not panic and must
	// produce the one-sided availability.
	reads := NewEpochTally(5)
	for i := 0; i < 20; i++ {
		reads.Record(true, 5, true)
	}
	if best, _ := reads.OracleAvailability(); math.Abs(best-1) > 1e-12 {
		t.Fatalf("read-only oracle %g", best)
	}
	writes := NewEpochTally(5)
	for i := 0; i < 20; i++ {
		writes.Record(false, 5, true)
	}
	if best, _ := writes.OracleAvailability(); math.Abs(best-1) > 1e-12 {
		t.Fatalf("write-only oracle %g", best)
	}
}

// TestNewEpochTallyPanics: a total below 2 leaves the paper's family empty
// (T = 1 has no q_r in [1, ⌊T/2⌋]), so there is no oracle to tally against.
func TestNewEpochTallyPanics(t *testing.T) {
	for _, total := range []int{0, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("accepted vote total %d", total)
				}
			}()
			NewEpochTally(total)
		}()
	}
}
