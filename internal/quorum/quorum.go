// Package quorum implements the voting machinery of the quorum consensus
// protocol (Gifford 1979) as used by the paper: vote assignments, read/write
// quorum pairs and their consistency conditions, the named special cases
// (majority consensus, read-one/write-all, primary copy), and quorum
// expressions (Expr) as the more general mechanism for specifying mutual
// exclusion — vote thresholds are one leaf of that algebra.
//
// Consistency conditions (paper §2.1), for total votes T:
//
//  1. q_r + q_w > T   — every read intersects the most recent write, and
//  2. q_w > T/2       — writes intersect writes (no simultaneous writes).
//
// Condition 2 implies T/2 < q_w ≤ T, and together they make q_r ≤ T/2
// sufficient, so the paper treats q_r ∈ [1, ⌊T/2⌋] as the primary variable
// with q_w = T − q_r + 1.
//
// These two inequalities are stated once, in Assignment; every other
// threshold-shaped validator in the repository (System.Validate here,
// strategy.System.Validate, votes.Certify) takes its verdicts from it.
package quorum

import (
	"fmt"
	"sort"
)

// Assignment is a read/write quorum pair for a system with some vote total.
type Assignment struct {
	QR int // read quorum: minimum votes to grant a read
	QW int // write quorum: minimum votes to grant a write
}

// Validate checks the two consistency conditions against total votes T.
func (a Assignment) Validate(T int) error {
	if T <= 0 {
		return fmt.Errorf("quorum: total votes T=%d must be positive", T)
	}
	if a.QR < 1 || a.QR > T {
		return fmt.Errorf("quorum: read quorum %d out of [1,%d]", a.QR, T)
	}
	if a.QW < 1 || a.QW > T {
		return fmt.Errorf("quorum: write quorum %d out of [1,%d]", a.QW, T)
	}
	if !a.ReadsSeeWrites(T) {
		return fmt.Errorf("quorum: q_r+q_w = %d does not exceed T = %d (reads may miss writes)", a.QR+a.QW, T)
	}
	if !a.WritesExclude(T) {
		return fmt.Errorf("quorum: 2·q_w = %d does not exceed T = %d (simultaneous writes possible)", 2*a.QW, T)
	}
	return nil
}

// ReadsSeeWrites reports condition 1, q_r + q_w > T: two disjoint site sets
// hold at most T votes between them, so every read quorum shares a site
// with every write quorum (pigeonhole).
func (a Assignment) ReadsSeeWrites(T int) bool { return a.QR+a.QW > T }

// WritesExclude reports condition 2, 2·q_w > T: write quorums pairwise
// intersect, by the same pigeonhole argument.
func (a Assignment) WritesExclude(T int) bool { return 2*a.QW > T }

// GrantRead reports whether a read succeeds in a component holding votes.
func (a Assignment) GrantRead(votes int) bool { return votes >= a.QR }

// GrantWrite reports whether a write succeeds in a component holding votes.
func (a Assignment) GrantWrite(votes int) bool { return votes >= a.QW }

// String returns a compact representation like "(q_r=28, q_w=74)".
func (a Assignment) String() string {
	return fmt.Sprintf("(q_r=%d, q_w=%d)", a.QR, a.QW)
}

// ForReadQuorum returns the assignment the paper derives from the primary
// variable q_r: q_w = T − q_r + 1 (condition 1 held with equality + 1).
// It panics if the resulting pair is invalid for T.
func ForReadQuorum(qr, T int) Assignment {
	a := Assignment{QR: qr, QW: T - qr + 1}
	if err := a.Validate(T); err != nil {
		panic(fmt.Sprintf("quorum: ForReadQuorum(%d, %d): %v", qr, T, err))
	}
	return a
}

// MaxReadQuorum returns ⌊T/2⌋, the largest useful read quorum.
func MaxReadQuorum(T int) int { return T / 2 }

// Majority returns the majority consensus assignment (Thomas 1979) as the
// member of the paper's family with the largest read quorum:
// q_r = ⌊T/2⌋, q_w = T − ⌊T/2⌋ + 1. For even T this is the textbook
// (⌊T/2⌋, ⌊T/2⌋+1); for odd T the textbook pair sums to exactly T and
// violates condition 1 (a ⌊T/2⌋-vote read could miss a ⌈T/2⌉-vote write),
// so the valid write quorum is one vote higher — matching what the paper's
// simulations actually evaluate at q_r = ⌊T/2⌋ with T = 101.
func Majority(T int) Assignment {
	return Assignment{QR: T / 2, QW: T - T/2 + 1}
}

// ReadOneWriteAll returns the ROWA assignment q_r = 1, q_w = T.
func ReadOneWriteAll(T int) Assignment {
	return Assignment{QR: 1, QW: T}
}

// Enumerate returns every assignment of the paper's family
// {(q_r, T−q_r+1) : 1 ≤ q_r ≤ ⌊T/2⌋} in increasing q_r order.
func Enumerate(T int) []Assignment {
	if T < 2 {
		return nil
	}
	out := make([]Assignment, 0, T/2)
	for qr := 1; qr <= T/2; qr++ {
		out = append(out, Assignment{QR: qr, QW: T - qr + 1})
	}
	return out
}

// VoteAssignment maps sites to votes. The paper's study uses the uniform
// assignment (one vote per copy); the primary copy protocol is expressed by
// giving all votes to one site.
type VoteAssignment []int

// UniformVotes returns one vote per site.
func UniformVotes(n int) VoteAssignment {
	v := make(VoteAssignment, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// PrimaryCopyVotes returns the vote assignment that reduces quorum consensus
// to the primary copy protocol (Alsberg & Day 1976): the primary site holds
// every vote, so any quorum can be met only in the primary's component.
func PrimaryCopyVotes(n, primary int) VoteAssignment {
	if primary < 0 || primary >= n {
		panic(fmt.Sprintf("quorum: primary %d out of [0,%d)", primary, n))
	}
	v := make(VoteAssignment, n)
	v[primary] = 1
	return v
}

// MinSitesForQuorum returns the smallest number of sites whose votes can
// meet quorum q — the best-case message cost of an access (greedy on the
// largest vote holders). Returns -1 when q exceeds the vote total.
func (v VoteAssignment) MinSitesForQuorum(q int) int {
	if q <= 0 {
		return 0
	}
	sorted := append([]int(nil), v...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	sum := 0
	for i, x := range sorted {
		sum += x
		if sum >= q {
			return i + 1
		}
	}
	return -1
}

// Total returns the vote total T.
func (v VoteAssignment) Total() int {
	t := 0
	for _, x := range v {
		t += x
	}
	return t
}

// Validate rejects negative vote counts and a zero total.
func (v VoteAssignment) Validate() error {
	for i, x := range v {
		if x < 0 {
			return fmt.Errorf("quorum: site %d has negative votes %d", i, x)
		}
	}
	if v.Total() == 0 {
		return fmt.Errorf("quorum: vote total is zero")
	}
	return nil
}
