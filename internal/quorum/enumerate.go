package quorum

import (
	"fmt"
	"sort"
)

// Minimal-quorum enumeration for Threshold expressions. Only *minimal*
// quorums matter to every consumer: intersection of a system is decided by
// its minimal quorums, and in a strategy LP adding a site to a quorum adds
// load and can only raise the completion latency, so every non-minimal
// quorum's column is dominated by the column of a minimal subset — the
// dominant-quorum reduction. Minimality under the vote model is cheap to
// maintain: a set S with votes(S) ≥ q is minimal iff removing its
// smallest-vote member drops it below q.
//
// The enumerator visits sites in descending vote order and prunes with the
// sorted-vote pigeonhole bound: a branch whose current votes plus the
// whole remaining suffix cannot reach q is dead. Because insertion order
// is descending, a set first crosses the threshold exactly when its last
// (smallest) member joins, so every emitted set is minimal and every
// minimal set is emitted exactly once.

// enumerator carries the DFS state for minimal-quorum enumeration. S is the
// caller's site-set type, so strategy pools need no conversion pass.
type enumerator[S ~[]int] struct {
	order  []int // site indices, sorted by votes descending (then index)
	votes  []int // votes in `order` order
	suffix []int // suffix[i] = Σ votes[i:]
	q      int
	f      int // resilience: enumerate sets with votes(S) − top-f(S) ≥ q
	max    int
	out    []S
	cur    []int
	full   bool // true when enumeration was cut short by max
}

// ThresholdQuorums returns every minimal f-resilient quorum of the vote
// assignment at threshold q as sorted site sets, in deterministic order, up
// to max sets (max ≤ 0 means unlimited). An f-resilient quorum is a set S
// that still holds q votes after losing its f largest-vote members —
// equivalently, S remains a quorum after any f of its members fail (losing
// the largest votes is the worst case; pigeonhole on the sorted votes);
// f = 0 gives the plain minimal quorums. The second result reports whether
// the enumeration is complete; when false, the returned pool is a strict
// subset and global claims (optimality, intersection) must come from
// elsewhere. Any number of sites is supported.
func ThresholdQuorums[S ~[]int](votes []int, q, f, max int) ([]S, bool) {
	if q <= 0 {
		panic(fmt.Sprintf("quorum: quorum threshold %d must be positive", q))
	}
	if f < 0 {
		panic(fmt.Sprintf("quorum: negative resilience %d", f))
	}
	n := len(votes)
	e := &enumerator[S]{q: q, f: f, max: max}
	e.order = make([]int, n)
	for i := range e.order {
		e.order[i] = i
	}
	sort.SliceStable(e.order, func(a, b int) bool {
		return votes[e.order[a]] > votes[e.order[b]]
	})
	e.votes = make([]int, n)
	for i, site := range e.order {
		e.votes[i] = votes[site]
	}
	e.suffix = make([]int, n+1)
	for i := n - 1; i >= 0; i-- {
		e.suffix[i] = e.suffix[i+1] + e.votes[i]
	}
	e.dfs(0, 0, 0)
	return e.out, !e.full
}

// dfs explores branches from position i with `size` members chosen and
// `resilient` the vote sum of the members beyond the first f (the votes
// that survive the worst-case loss of f members). For f = 0 this is the
// plain vote sum.
func (e *enumerator[S]) dfs(i, size, resilient int) {
	if e.full {
		return
	}
	// Pigeonhole prune: even taking the whole suffix cannot reach q. The
	// suffix contributes fully to the resilient sum except for the members
	// still needed to fill the top-f slots.
	bound := resilient + e.suffix[i]
	if size < e.f {
		// Some suffix members will land in the top-f slots; discount the
		// largest remaining votes, which come first in descending order.
		for k := i; k < i+(e.f-size) && k < len(e.votes); k++ {
			bound -= e.votes[k]
		}
	}
	if bound < e.q {
		return
	}
	for j := i; j < len(e.votes); j++ {
		r := resilient
		if size >= e.f {
			r += e.votes[j]
		}
		e.cur = append(e.cur, j)
		if r >= e.q {
			// Crossed the threshold: the set is a candidate. With f = 0 it
			// is automatically minimal (the prefix was short of q, and
			// every member's vote ≥ the last one's). With resilience the
			// worst single removal is the largest non-top member, which is
			// position f in the descending member list.
			if e.f == 0 || r-e.votes[e.cur[e.f]] < e.q {
				e.emit()
			}
			// Supersets of a (resilient) quorum are never minimal: removing
			// the added member keeps the property. Stop this branch.
		} else {
			e.dfs(j+1, size+1, r)
		}
		e.cur = e.cur[:len(e.cur)-1]
		if e.full {
			return
		}
	}
}

func (e *enumerator[S]) emit() {
	if e.max > 0 && len(e.out) >= e.max {
		e.full = true
		return
	}
	q := make(S, len(e.cur))
	for k, pos := range e.cur {
		q[k] = e.order[pos]
	}
	sort.Ints(q)
	e.out = append(e.out, q)
}
