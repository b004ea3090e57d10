package strategy

import "quorumkit/internal/quorum"

// Only *minimal* quorums ever enter an optimizer LP (the dominant-quorum
// reduction; the enumerator and its argument live in internal/quorum).

// MinimalQuorums returns every minimal quorum of the vote assignment at
// threshold q, in deterministic order, up to max sets (max ≤ 0 means
// unlimited). The second result reports whether the enumeration is
// complete; when false, the returned pool is a strict subset and global
// optimality claims must come from column-generation pricing instead.
func MinimalQuorums(votes []int, q, max int) ([]Quorum, bool) {
	return MinimalResilientQuorums(votes, q, 0, max)
}

// MinimalResilientQuorums returns every minimal f-resilient quorum: sets
// that still hold q votes after any f of their members fail.
func MinimalResilientQuorums(votes []int, q, f, max int) ([]Quorum, bool) {
	return quorum.ThresholdQuorums[Quorum](votes, q, f, max)
}
