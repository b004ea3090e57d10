package votes

// This file is the certification layer of the weighted-vote search engine:
// cheap sufficient certificates for quorum intersection and f-survival that
// replace the exponential subset enumeration of the weighted-consensus
// literature (SNIPPETS.md Snippets 1 & 3 certify intersection by comparing
// every pair of valid quorums — Θ(4ⁿ) in the worst case).
//
// For *threshold* quorum systems — a read quorum is any site set holding at
// least q_r votes, a write quorum any set holding at least q_w — sorting the
// weights once makes both checks O(n log n):
//
//   - Read/write intersection. Two disjoint site sets together hold at most
//     W = Σ votes, so q_r + q_w > W forces every read quorum to share a site
//     with every write quorum (pigeonhole). The condition is sufficient but
//     not necessary: with q_r + q_w ≤ W intersection can still hold because
//     integer weights cannot always be split to realize both thresholds
//     disjointly (votes {5}, q_r=2, q_w=3: every quorum contains the single
//     site, yet 2+3 ≤ 5). Exactly deciding intersection in that regime is
//     the subset-sum-flavored question the paper's §2 #P-completeness
//     discussion warns about; the search engine therefore only *accepts*
//     candidates the certificate proves, which keeps it sound (never accepts
//     a non-intersecting system) at the price of completeness.
//
//   - f-survival. The worst f failures for a threshold system are the f
//     heaviest sites, so quorums of threshold q survive any f failures iff
//     W − (sum of the f largest weights) ≥ q. Unlike the intersection bound
//     this is exact — both directions hold — and the property tests pin the
//     equivalence against a C(n,f) enumeration oracle.
import (
	"fmt"
	"sort"

	"quorumkit/internal/quorum"
)

// Certificate is the outcome of certifying a weighted vote assignment
// against a read/write threshold pair. A certificate with Intersects()==true
// is a machine-checked proof that the induced threshold quorum system is
// 1SR-safe: reads see writes and writes exclude writes.
type Certificate struct {
	T      int // total votes W
	QR, QW int // certified thresholds

	// ReadWrite reports the pigeonhole intersection bound q_r + q_w > T:
	// every read quorum shares a site with every write quorum.
	ReadWrite bool
	// WriteWrite reports 2·q_w > T: write quorums pairwise intersect.
	WriteWrite bool

	// ReadSurvives (resp. WriteSurvives) is the largest f such that after
	// the f heaviest sites fail the survivors still hold QR (resp. QW)
	// votes — exact for threshold systems, computed from one sort.
	ReadSurvives  int
	WriteSurvives int
}

// Intersects reports whether both intersection conditions are certified.
func (c Certificate) Intersects() bool { return c.ReadWrite && c.WriteWrite }

// Check returns nil when the certificate proves intersection, and a typed
// error naming the first violated condition otherwise.
func (c Certificate) Check() error {
	if !c.ReadWrite {
		return fmt.Errorf("votes: uncertified: q_r+q_w = %d does not exceed T = %d (a read may miss a write)",
			c.QR+c.QW, c.T)
	}
	if !c.WriteWrite {
		return fmt.Errorf("votes: uncertified: 2·q_w = %d does not exceed T = %d (two writes may be disjoint)",
			2*c.QW, c.T)
	}
	return nil
}

// Certify builds the intersection and f-survival certificate for a weighted
// vote assignment and a read/write threshold pair, in O(n log n): one
// descending sort of the weights plus prefix sums. It rejects malformed
// inputs (negative weights, zero total, thresholds outside [1, T]).
func Certify(votes []int, qr, qw int) (Certificate, error) {
	if len(votes) == 0 {
		return Certificate{}, fmt.Errorf("votes: certify: empty assignment")
	}
	T := 0
	for i, v := range votes {
		if v < 0 {
			return Certificate{}, fmt.Errorf("votes: certify: site %d has negative votes %d", i, v)
		}
		T += v
	}
	if T == 0 {
		return Certificate{}, fmt.Errorf("votes: certify: vote total is zero")
	}
	if qr < 1 || qr > T || qw < 1 || qw > T {
		return Certificate{}, fmt.Errorf("votes: certify: thresholds (%d, %d) out of [1, %d]", qr, qw, T)
	}
	sorted := append([]int(nil), votes...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	a := quorum.Assignment{QR: qr, QW: qw}
	return Certificate{
		T:             T,
		QR:            qr,
		QW:            qw,
		ReadWrite:     a.ReadsSeeWrites(T),
		WriteWrite:    a.WritesExclude(T),
		ReadSurvives:  maxSurvivableSorted(sorted, T, qr),
		WriteSurvives: maxSurvivableSorted(sorted, T, qw),
	}, nil
}

// SurvivesFailures reports whether quorums of threshold q survive every
// possible loss of f sites: after the f heaviest sites fail the remaining
// weight still reaches q. Exact for threshold systems (removing the f
// heaviest sites is the adversary's best move). O(n log n).
func SurvivesFailures(votes []int, q, f int) bool {
	return MaxSurvivableF(votes, q) >= f
}

// MaxSurvivableF returns the largest f ≥ 0 such that quorums of threshold q
// survive any f site failures, or -1 when even f = 0 fails (q > T).
func MaxSurvivableF(votes []int, q int) int {
	T := 0
	for _, v := range votes {
		if v < 0 {
			panic(fmt.Sprintf("votes: negative votes %d", v))
		}
		T += v
	}
	sorted := append([]int(nil), votes...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	return maxSurvivableSorted(sorted, T, q)
}

// maxSurvivableSorted scans descending weights: remaining = T − prefix(f)
// is non-increasing in f, so the answer is the last f keeping remaining ≥ q.
func maxSurvivableSorted(sorted []int, T, q int) int {
	if q > T {
		return -1
	}
	remaining := T
	for f := 0; f < len(sorted); f++ {
		remaining -= sorted[f]
		if remaining < q {
			return f
		}
	}
	// All sites removed and still ≥ q is only possible for q ≤ 0; with
	// q ≥ 1 the loop always returns. Guard for completeness.
	return len(sorted)
}
