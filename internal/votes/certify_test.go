package votes

import (
	"math/bits"
	"testing"

	"quorumkit/internal/rng"
)

// subsetOracle answers threshold questions about one weight vector exactly
// from its 2^n subset sums, enumerated once: sums[mask] extends
// sums[mask&(mask-1)] by the lowest member's votes. Exponential — the
// ground truth the O(n log n) certifier is pinned against.
type subsetOracle struct {
	T int
	// reach[w]: some site subset holds exactly w votes.
	reach []bool
	// minRemaining[k]: the fewest votes any k-site failure set leaves — over
	// all subsets, not just the heaviest prefix, so it independently checks
	// the pigeonhole argument.
	minRemaining []int
}

func newSubsetOracle(votes []int) subsetOracle {
	n, T := len(votes), 0
	for _, v := range votes {
		T += v
	}
	o := subsetOracle{T: T, reach: make([]bool, T+1), minRemaining: make([]int, n+1)}
	for k := range o.minRemaining {
		o.minRemaining[k] = T
	}
	sums := make([]int, 1<<n)
	for mask := range sums {
		if mask > 0 {
			sums[mask] = sums[mask&(mask-1)] + votes[bits.TrailingZeros(uint(mask))]
		}
		o.reach[sums[mask]] = true
		if k := bits.OnesCount(uint(mask)); T-sums[mask] < o.minRemaining[k] {
			o.minRemaining[k] = T - sums[mask]
		}
	}
	return o
}

// intersect decides read/write and write/write intersection: reads can miss
// writes iff some subset reaches q_r while its complement still reaches
// q_w, and writes can be disjoint iff some subset reaches q_w with q_w also
// left in the complement.
func (o subsetOracle) intersect(qr, qw int) (readWrite, writeWrite bool) {
	readWrite, writeWrite = true, true
	for w, ok := range o.reach {
		if !ok {
			continue
		}
		if w >= qr && o.T-w >= qw {
			readWrite = false
		}
		if w >= qw && o.T-w >= qw {
			writeWrite = false
		}
	}
	return readWrite, writeWrite
}

// maxF is the exact largest f such that EVERY f-site failure set leaves at
// least q votes (-1 when q > T).
func (o subsetOracle) maxF(q int) int {
	best := -1
	for f, rem := range o.minRemaining {
		if rem < q {
			break
		}
		best = f
	}
	return best
}

// TestCertifySoundAgainstBruteForce drives the certifier over randomized
// weight vectors (n ≤ 12, small vote alphabet so ties and zero-weight sites
// are common) and every threshold pair, asserting:
//
//  1. Soundness — a certificate with Intersects()==true is never refuted by
//     the exponential oracle. This is the property that lets the search
//     engines trust the O(n log n) check unconditionally.
//  2. Incompleteness is real — some systems intersect without certifying
//     (the bound is sufficient, not necessary); the test requires at least
//     one such case so the documentation stays honest.
//  3. f-survival is EXACT — both directions, against the all-subsets oracle.
func TestCertifySoundAgainstBruteForce(t *testing.T) {
	src := rng.New(20260807)
	alphabet := []int{0, 0, 1, 1, 1, 2, 2, 3, 5} // ties and zeros likely
	vectors := 0
	incomplete := 0
	for vectors < 500 {
		n := 2 + src.Intn(11) // 2..12
		votes := make([]int, n)
		T := 0
		for i := range votes {
			votes[i] = alphabet[src.Intn(len(alphabet))]
			T += votes[i]
		}
		if T == 0 {
			continue // rejected by Certify; covered in the error-path test
		}
		vectors++
		oracle := newSubsetOracle(votes)
		for qr := 1; qr <= T; qr++ {
			// Four write thresholds per read threshold, the paper pairing
			// among them.
			qws := []int{1, (T + 2) / 2, T - qr + 1, T}
			for _, qw := range qws {
				if qw < 1 || qw > T {
					continue
				}
				cert, err := Certify(votes, qr, qw)
				if err != nil {
					t.Fatalf("Certify(%v, %d, %d): %v", votes, qr, qw, err)
				}
				oRW, oWW := oracle.intersect(qr, qw)
				if cert.ReadWrite && !oRW {
					t.Fatalf("UNSOUND: cert claims read/write intersection for votes=%v qr=%d qw=%d, oracle refutes", votes, qr, qw)
				}
				if cert.WriteWrite && !oWW {
					t.Fatalf("UNSOUND: cert claims write/write intersection for votes=%v qr=%d qw=%d, oracle refutes", votes, qr, qw)
				}
				if oRW && oWW && !cert.Intersects() {
					incomplete++
				}
				if got, want := cert.ReadSurvives, oracle.maxF(qr); got != want {
					t.Fatalf("ReadSurvives=%d, oracle %d for votes=%v qr=%d", got, want, votes, qr)
				}
				if got, want := cert.WriteSurvives, oracle.maxF(qw); got != want {
					t.Fatalf("WriteSurvives=%d, oracle %d for votes=%v qw=%d", got, want, votes, qw)
				}
			}
		}
	}
	if incomplete == 0 {
		t.Fatal("expected the pigeonhole bound to be incomplete on some random instance; either the generator is broken or the documentation overstates the gap")
	}
	t.Logf("%d vectors, %d intersecting-but-uncertified threshold pairs", vectors, incomplete)
}

// TestCertifyIncompleteExample pins the documented counterexample: a single
// site holding 5 votes with q_r=2, q_w=3. Every quorum contains the site, so
// the system intersects, yet 2+3 ≤ 5 fails the pigeonhole bound.
func TestCertifyIncompleteExample(t *testing.T) {
	cert, err := Certify([]int{5}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cert.ReadWrite {
		t.Fatal("q_r+q_w=5 should not certify against T=5")
	}
	if cert.Intersects() {
		t.Fatal("certificate should be incomplete here")
	}
	if rw, ww := newSubsetOracle([]int{5}).intersect(2, 3); !rw || !ww {
		t.Fatal("oracle: a one-site system always intersects")
	}
	if err := cert.Check(); err == nil {
		t.Fatal("Check should report the violated condition")
	}
}

// TestCertifyMajorityAlwaysCertifies asserts the search-relevant guarantee:
// every pair of the paper's family q_w = T−q_r+1, q_r ∈ [1, ⌊T/2⌋] certifies
// for every weight vector, so the engines never reject a family candidate.
func TestCertifyMajorityAlwaysCertifies(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + src.Intn(12)
		votes := make([]int, n)
		T := 0
		for i := range votes {
			votes[i] = src.Intn(5)
			T += votes[i]
		}
		if T < 2 {
			continue
		}
		for qr := 1; qr <= T/2; qr++ {
			cert, err := Certify(votes, qr, T-qr+1)
			if err != nil {
				t.Fatal(err)
			}
			if !cert.Intersects() {
				t.Fatalf("family pair (%d, %d) failed to certify for T=%d", qr, T-qr+1, T)
			}
			if err := cert.Check(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCertifyErrorPaths(t *testing.T) {
	cases := []struct {
		votes  []int
		qr, qw int
	}{
		{nil, 1, 1},          // empty
		{[]int{1, -1}, 1, 1}, // negative
		{[]int{0, 0}, 1, 1},  // zero total
		{[]int{1, 1}, 0, 2},  // qr below range
		{[]int{1, 1}, 3, 2},  // qr above T
		{[]int{1, 1}, 1, 0},  // qw below range
		{[]int{1, 1}, 1, 3},  // qw above T
	}
	for _, c := range cases {
		if _, err := Certify(c.votes, c.qr, c.qw); err == nil {
			t.Fatalf("Certify(%v, %d, %d) accepted", c.votes, c.qr, c.qw)
		}
	}
}

func TestSurvivesFailures(t *testing.T) {
	votes := []int{5, 3, 1, 1} // T=10
	cert, err := Certify(votes, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold 2: heaviest two leave 2 ≥ 2, heaviest three leave 1 → f=2.
	if cert.ReadSurvives != 2 {
		t.Fatalf("ReadSurvives=%d, want 2", cert.ReadSurvives)
	}
	// Threshold 6: losing the 5-vote site leaves 5 < 6 → only f=0 survives.
	if cert.WriteSurvives != 0 {
		t.Fatalf("WriteSurvives=%d, want 0", cert.WriteSurvives)
	}
	// Threshold T: any single failure of a voting site breaks it.
	if cert, err := Certify(votes, 10, 10); err != nil || cert.ReadSurvives != 0 {
		t.Fatalf("ReadSurvives=%d (err %v) at q=T, want 0", cert.ReadSurvives, err)
	}
}
