// Package coterie implements general read/write coterie systems — the
// strictly-more-general mechanism the paper points to through its
// references [7] and [8] (Garcia-Molina & Barbara; Cheung, Ahamad &
// Ammar). A vote/quorum pair induces a coterie system, but some coterie
// systems (the grid protocol below, for example) are not induced by any
// vote assignment, and they can dominate voting.
//
// A system here is a quorum.System — a read and a write quorum.Expr — and
// this package only builds the classic families as expressions. A system's
// exact availability on a small topology is priced on the component table
// the vote search uses (votes.Scenarios.Availability): an access at site i
// is granted when i's component satisfies the relevant expression
// (Expr.Holds). This is the set-valued generalization of the paper's
// vote-count criterion, and it reduces to the paper's model under
// vote-induced systems (verified in the tests).
package coterie

import (
	"fmt"

	"quorumkit/internal/quorum"
)

// FromQuorums returns the system induced by a vote assignment and a
// (q_r, q_w) pair: read quorums are the sets holding q_r votes, write
// quorums the sets holding q_w votes. Nothing is enumerated, so any number
// of sites is accepted.
func FromQuorums(votes quorum.VoteAssignment, a quorum.Assignment) (quorum.System, error) {
	if err := votes.Validate(); err != nil {
		return quorum.System{}, err
	}
	if err := a.Validate(votes.Total()); err != nil {
		return quorum.System{}, err
	}
	return quorum.System{Read: quorum.Threshold(votes, a.QR), Write: quorum.Threshold(votes, a.QW)}, nil
}

// Grid returns the grid protocol system for rows×cols sites laid out in
// row-major order (site r·cols+c): a read quorum is one site from every
// column; a write quorum is a full column plus one site from every other
// column. The system is valid but not induced by any vote assignment for
// grids of at least 3×3.
func Grid(rows, cols int) (quorum.System, error) {
	if rows < 1 || cols < 1 || rows*cols > 16 {
		// 16 keeps the exact evaluator and Validate's pairwise check (at
		// most 2·8·2⁷ sets, for 2×8) tractable.
		return quorum.System{}, fmt.Errorf("coterie: grid %dx%d unsupported (need ≤ 16 sites)", rows, cols)
	}
	anyOf, allOf := make([]quorum.Expr, cols), make([]quorum.Expr, cols)
	for c := range anyOf {
		column := make([]quorum.Expr, rows)
		for r := range column {
			column[r] = quorum.Site(r*cols + c)
		}
		anyOf[c], allOf[c] = quorum.Or(column...), quorum.And(column...)
	}
	cover := quorum.And(anyOf...)
	s := quorum.System{Read: cover, Write: quorum.And(quorum.Or(allOf...), cover)}
	if err := s.Validate(); err != nil {
		return quorum.System{}, err
	}
	return s, nil
}

// VoteInducible reports whether the system's write coterie can be realized
// by some vote assignment with per-site votes in [0, maxVotes] and a write
// quorum — a brute-force check used to certify that a coterie (like the
// grid) genuinely escapes the voting framework.
func VoteInducible(s quorum.System, n, maxVotes int) bool {
	if n > 9 {
		panic(fmt.Sprintf("coterie: VoteInducible supports ≤ 9 sites, got %d", n))
	}
	sets, _ := s.Write.MinimalQuorums(0)
	votes := make(quorum.VoteAssignment, n)
	var try func(i int) bool
	try = func(i int) bool {
		if i == n {
			total := votes.Total()
		thresholds:
			for q := total/2 + 1; q <= total; q++ {
				// Every target quorum must be a minimal quorum at q: meet
				// q, and fall below it without its lightest member.
				for _, set := range sets {
					sum, minV := 0, 1<<30
					for _, site := range set {
						sum += votes[site]
						minV = min(minV, votes[site])
					}
					if sum < q || sum-minV >= q {
						continue thresholds
					}
				}
				// The target is then part of the induced coterie, and equal
				// to it iff the induced one has no further member.
				if induced, _ := quorum.Threshold(votes, q).MinimalQuorums(len(sets) + 1); len(induced) == len(sets) {
					return true
				}
			}
			return false
		}
		for v := 0; v <= maxVotes; v++ {
			votes[i] = v
			if try(i + 1) {
				return true
			}
		}
		votes[i] = 0
		return false
	}
	return try(0)
}
