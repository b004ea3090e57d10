package quorum

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Group is a set of sites represented as a bitmask (site i ↔ bit i): the
// set of up sites an Expr is evaluated against, and the working form of the
// minimal quorums of composite expressions. It covers systems of up to 64
// sites, which is beyond the enumerative uses in the literature the paper
// cites ([7] reaches only seven sites; [1] nine copies).
type Group uint64

// NewGroup builds a Group from site indices.
func NewGroup(sites ...int) Group {
	var g Group
	for _, s := range sites {
		if s < 0 || s >= 64 {
			panic(fmt.Sprintf("quorum: site %d out of [0,64)", s))
		}
		g |= 1 << uint(s)
	}
	return g
}

// Contains reports whether site s is in the group.
func (g Group) Contains(s int) bool { return g&(1<<uint(s)) != 0 }

// Intersects reports whether two groups share a site.
func (g Group) Intersects(h Group) bool { return g&h != 0 }

// Subset reports whether g ⊆ h.
func (g Group) Subset(h Group) bool { return g&^h == 0 }

// Size returns the number of sites in the group.
func (g Group) Size() int { return bits.OnesCount64(uint64(g)) }

// Sites returns the member site indices in increasing order.
func (g Group) Sites() []int {
	out := make([]int, 0, g.Size())
	for s := 0; s < 64; s++ {
		if g.Contains(s) {
			out = append(out, s)
		}
	}
	return out
}

// Expr is a quorum system written as a monotone expression over sites, in
// the style of quoracle's a*b + c*d*e (Whittaker et al.): a site set
// contains a quorum iff the expression holds with exactly those sites true.
// The grammar is
//
//	Expr := Site(i) | Choose(k, Expr…) | Threshold(votes, q)
//
// with And = Choose(all) and Or = Choose(1). Threshold is the paper's vote
// model (any set holding q votes); everything a coterie can say that votes
// cannot — grids, trees, projective planes — is a Choose over sites.
// Composite expressions and Holds work on Groups and so cover sites 0..63;
// a Threshold on its own enumerates at any size. The zero Expr has no
// quorum.
type Expr struct {
	kind  exprKind
	site  int            // exprSite
	k     int            // exprChoose: kids needed; exprThreshold: votes needed
	kids  []Expr         // exprChoose
	votes VoteAssignment // exprThreshold
}

type exprKind uint8

const (
	exprNone exprKind = iota
	exprSite
	exprChoose
	exprThreshold
)

// Site is the expression satisfied exactly when site i is present.
func Site(i int) Expr {
	NewGroup(i) // range check
	return Expr{kind: exprSite, site: i}
}

// Choose holds when at least k of the sub-expressions hold.
func Choose(k int, es ...Expr) Expr {
	if k < 1 || k > len(es) {
		panic(fmt.Sprintf("quorum: Choose(%d) of %d expressions", k, len(es)))
	}
	return Expr{kind: exprChoose, k: k, kids: es}
}

// And holds when every sub-expression holds.
func And(es ...Expr) Expr { return Choose(len(es), es...) }

// Or holds when some sub-expression holds.
func Or(es ...Expr) Expr { return Choose(1, es...) }

// Threshold holds when the present sites carry at least q votes. It panics
// on a non-positive q or a negative vote count; q above the vote total is
// allowed and gives an expression with no quorum.
func Threshold(votes VoteAssignment, q int) Expr {
	if q <= 0 {
		panic(fmt.Sprintf("quorum: Threshold q=%d", q))
	}
	for i, v := range votes {
		if v < 0 {
			panic(fmt.Sprintf("quorum: site %d has negative votes %d", i, v))
		}
	}
	return Expr{kind: exprThreshold, k: q, votes: slices.Clone(votes)}
}

// Holds reports whether the site set `up` contains a quorum.
func (e Expr) Holds(up Group) bool {
	switch e.kind {
	case exprSite:
		return up.Contains(e.site)
	case exprChoose:
		need := e.k
		for _, kid := range e.kids {
			if kid.Holds(up) {
				if need--; need == 0 {
					return true
				}
			}
		}
	case exprThreshold:
		sum := 0
		for s, v := range e.votes {
			if up.Contains(s) {
				sum += v
			}
		}
		return sum >= e.k
	}
	return false
}

// MinimalQuorums returns the minimal site sets that satisfy the expression,
// each sorted, in a deterministic order. max > 0 bounds the work: a
// Threshold stops after max sets and returns that prefix; a composite
// expression returns nil as soon as any antichain it must build on the way
// would exceed max. The second result reports whether the enumeration is
// complete — when false the sets returned are a strict subset, so nothing
// global (intersection, optimality) may be concluded from them.
func (e Expr) MinimalQuorums(max int) ([][]int, bool) {
	if e.kind == exprThreshold {
		return ThresholdQuorums[[]int](e.votes, e.k, 0, max)
	}
	gs, ok := e.groups(max)
	if !ok {
		return nil, false
	}
	sets := make([][]int, len(gs))
	for i, g := range gs {
		sets[i] = g.Sites()
	}
	return sets, true
}

// groups is MinimalQuorums on bitmasks. It also reports false for a
// Threshold over more than 64 sites, which a Group cannot hold.
func (e Expr) groups(max int) ([]Group, bool) {
	switch e.kind {
	case exprSite:
		return []Group{NewGroup(e.site)}, true
	case exprThreshold:
		if len(e.votes) > 64 {
			return nil, false
		}
		sets, ok := ThresholdQuorums[[]int](e.votes, e.k, 0, max)
		if !ok {
			return nil, false
		}
		gs := make([]Group, len(sets))
		for i, s := range sets {
			gs[i] = NewGroup(s...)
		}
		return gs, true
	case exprChoose:
		// at[j] is the antichain of "at least j of the kids seen so far";
		// at[0] is the empty set, which needs nothing. Each kid either
		// leaves a j-of set as it was or extends a (j−1)-of set. Only the
		// levels that can still reach k with the kids left are kept up to
		// date, so And costs one level per kid, not a binomial's worth.
		at := make([][]Group, e.k+1)
		at[0] = []Group{0}
		for i, kid := range e.kids {
			ks, ok := kid.groups(max)
			if !ok {
				return nil, false
			}
			left := len(e.kids) - 1 - i
			for j := min(e.k, i+1); j >= 1 && j >= e.k-left; j-- {
				if max > 0 && len(at[j])+len(at[j-1])*len(ks) > max {
					return nil, false
				}
				merged := at[j]
				for _, a := range at[j-1] {
					for _, b := range ks {
						merged = append(merged, a|b)
					}
				}
				at[j] = minimize(merged)
			}
		}
		return at[e.k], true
	}
	return nil, true
}

// minimize reduces gs in place to its minimal antichain — no duplicates, no
// supersets of another member — in mask order. Grant behaviour is
// unchanged: a set contains a member of gs iff it contains a member of the
// result. (A proper subset is a smaller number, so after sorting every
// set's subsets precede it.)
func minimize(gs []Group) []Group {
	slices.Sort(gs)
	out := gs[:0]
next:
	for _, g := range gs {
		for _, h := range out {
			if h.Subset(g) {
				continue next
			}
		}
		out = append(out, g)
	}
	return out
}

// System is a read/write pair of quorum expressions. Correctness requires:
//
//	(w-w) every two write quorums intersect (no concurrent writes), and
//	(r-w) every read quorum intersects every write quorum (reads see the
//	      most recent write).
//
// Read quorums need not intersect each other.
type System struct {
	Read, Write Expr
}

// validateBound caps the minimal quorums per side (and per intermediate
// antichain) that Validate will compare pairwise: 4096² mask tests run in
// tens of milliseconds. Every grid of at most 16 sites and every tree of
// depth ≤ 3 is far inside it; the depth-4 tree (65,535 quorums) is not.
const validateBound = 4096

// ErrUndecided is returned by System.Validate when a system has too many
// minimal quorums to compare pairwise. Deciding intersection of general
// systems is hard (Lachowski); Validate declines rather than guess, and
// never reports an undecided system as valid.
var ErrUndecided = errors.New("quorum: intersection undecided: too many minimal quorums to compare pairwise")

// Validate proves the two intersection properties or returns an error.
//
// A Threshold pair over one vote vector is decided by the pigeonhole rule
// of Assignment.Validate in O(n), at any size. The rule is sufficient, not
// necessary (votes {5}, q_r=2, q_w=3 intersect, yet 2+3 ≤ 5), so such a
// pair can be rejected though its quorums happen to intersect — the price
// of never enumerating. Every other system is decided exactly by comparing
// its minimal quorums pairwise, up to validateBound per side; past that
// the result is ErrUndecided.
func (s System) Validate() error {
	r, w := s.Read, s.Write
	if r.kind == exprThreshold && w.kind == exprThreshold && slices.Equal(r.votes, w.votes) {
		return Assignment{QR: r.k, QW: w.k}.Validate(r.votes.Total())
	}
	reads, rOK := r.groups(validateBound)
	writes, wOK := w.groups(validateBound)
	if !rOK || !wOK {
		return ErrUndecided
	}
	if len(reads) == 0 || len(writes) == 0 {
		return fmt.Errorf("quorum: system has %d read and %d write quorums, need at least one of each", len(reads), len(writes))
	}
	for i, wq := range writes {
		for _, other := range writes[i+1:] {
			if !wq.Intersects(other) {
				return fmt.Errorf("quorum: write quorums %v and %v are disjoint (simultaneous writes possible)", wq.Sites(), other.Sites())
			}
		}
		for _, rq := range reads {
			if !rq.Intersects(wq) {
				return fmt.Errorf("quorum: read quorum %v misses write quorum %v (reads may miss writes)", rq.Sites(), wq.Sites())
			}
		}
	}
	return nil
}
