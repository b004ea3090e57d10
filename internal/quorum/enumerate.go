package quorum

import (
	"cmp"
	"fmt"
	"slices"
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
// caller's site-set type, so strategy pools need no conversion pass. With a
// nil sink it only counts; its per-site arrays can then live on the
// caller's stack, because the DFS writes no slice through the enumerator.
type enumerator[S ~[]int] struct {
	order  []int // site indices, sorted by votes descending (then index)
	votes  []int // votes in `order` order
	suffix []int // suffix[i] = Σ votes[i:]
	cur    []int // cur[:size] are the positions chosen on the current branch
	q      int
	f      int // resilience: enumerate sets with votes(S) − top-f(S) ≥ q
	max    int
	n      int  // sets emitted so far
	full   bool // true when enumeration was cut short by max
	sink   *sink[S]
}

// sink collects emitted sets. Each set's members are appended to a shared
// slab and handed out as a capacity-capped subslice, so a caller's append
// to one set copies it instead of overwriting the next. A full slab is
// replaced by one twice its size and never copied (the sets already handed
// out keep it alive), so a pool costs O(log size) allocations, not one per
// set.
type sink[S ~[]int] struct {
	slab []int
	out  []S
}

// newEnumerator sorts the sites and lays out the four per-site arrays in
// buf, or in a fresh array when buf is too short.
func newEnumerator[S ~[]int](votes []int, q, f, max int, buf []int) enumerator[S] {
	if q <= 0 {
		panic(fmt.Sprintf("quorum: quorum threshold %d must be positive", q))
	}
	if f < 0 {
		panic(fmt.Sprintf("quorum: negative resilience %d", f))
	}
	n := len(votes)
	if len(buf) < 4*n+1 {
		buf = make([]int, 4*n+1)
	}
	e := enumerator[S]{q: q, f: f, max: max,
		order: buf[:n], votes: buf[n : 2*n], suffix: buf[2*n : 3*n+1], cur: buf[3*n+1 : 4*n+1]}
	for i := range e.order {
		e.order[i] = i
	}
	slices.SortStableFunc(e.order, func(a, b int) int { return cmp.Compare(votes[b], votes[a]) })
	for i, site := range e.order {
		e.votes[i] = votes[site]
	}
	e.suffix[n] = 0
	for i := n - 1; i >= 0; i-- {
		e.suffix[i] = e.suffix[i+1] + e.votes[i]
	}
	return e
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
// elsewhere. Any number of sites is supported. The sets share backing
// arrays but are capacity-capped, so appending to one copies it.
func ThresholdQuorums[S ~[]int](votes []int, q, f, max int) ([]S, bool) {
	e := newEnumerator[S](votes, q, f, max, nil)
	e.sink = &sink[S]{}
	e.dfs(0, 0, 0)
	return e.sink.out, !e.full
}

// CountThresholdQuorums is ThresholdQuorums in counting mode: the number of
// minimal f-resilient quorums, up to max (max ≤ 0 means unlimited), and
// whether that is all of them. It allocates nothing for up to 64 sites.
func CountThresholdQuorums(votes []int, q, f, max int) (int, bool) {
	var buf [4*64 + 1]int
	e := newEnumerator[[]int](votes, q, f, max, buf[:])
	e.dfs(0, 0, 0)
	return e.n, !e.full
}

// dfs explores branches from position i with `size` members chosen and
// `resilient` the vote sum of the members beyond the first f (the votes
// that survive the worst-case loss of f members). For f = 0 this is the
// plain vote sum.
func (e *enumerator[S]) dfs(i, size, resilient int) {
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
		e.cur[size] = j
		if r >= e.q {
			// Crossed the threshold: the set is a candidate. With f = 0 it
			// is automatically minimal (the prefix was short of q, and
			// every member's vote ≥ the last one's). With resilience the
			// worst single removal is the largest non-top member, which is
			// position f in the descending member list.
			if e.f == 0 || r-e.votes[e.cur[e.f]] < e.q {
				e.emit(e.cur[:size+1])
			}
			// Supersets of a (resilient) quorum are never minimal: removing
			// the added member keeps the property. Stop this branch.
		} else {
			e.dfs(j+1, size+1, r)
		}
		if e.full {
			return
		}
	}
}

// emit records the set at positions cur, or stops the enumeration when it
// would be set max+1.
func (e *enumerator[S]) emit(cur []int) {
	if e.max > 0 && e.n >= e.max {
		e.full = true
		return
	}
	e.n++
	if s := e.sink; s != nil {
		if cap(s.slab)-len(s.slab) < len(cur) {
			// Earlier sets keep the old slab alive, so nothing is copied.
			s.slab = make([]int, 0, max(2*cap(s.slab), 64*len(cur)))
		}
		a := len(s.slab)
		for _, pos := range cur {
			s.slab = append(s.slab, e.order[pos])
		}
		q := s.slab[a:len(s.slab):len(s.slab)]
		slices.Sort(q)
		s.out = append(s.out, S(q))
	}
}
