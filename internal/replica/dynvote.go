package replica

import (
	"fmt"

	"quorumkit/internal/graph"
)

// DynVote implements dynamic voting with the linear tie-breaker
// (Jajodia & Mutchler — the paper's references [12, 13]); the paper borrows
// its version-number machinery for the QR protocol and cites this protocol
// family as the write-only baseline its read/write distinction improves on.
//
// Each copy carries a version number VN and the cardinality SC of the site
// set that applied the last update. A partition P may perform an access iff
// it contains more than half of that last update set — or exactly half
// including the lexicographically smallest member (the "linear" rule):
//
//	U  = sites in P holding the maximum VN in P
//	SC = update-set cardinality recorded by those copies
//	grant iff 2·|U| > SC, or 2·|U| = SC and min(U) is the designated
//	tie-breaker site of the last update set.
//
// Dynamic voting makes no read/write distinction — accesses are accesses —
// which is precisely the modeling assumption the paper's Figure-1 algorithm
// generalizes away from.
type DynVote struct {
	st *graph.State

	vn   []int64 // per-copy version number
	sc   []int   // per-copy cardinality of the last update set
	tb   []int   // per-copy tie-breaker: smallest site of the last update set
	val  []int64 // per-copy value
	last int64   // globally latest committed version (test oracle)

	memberBuf []int
}

// NewDynVote creates the protocol over a network state: all copies start
// at version 1 with the full site set as the update set.
func NewDynVote(st *graph.State) *DynVote {
	n := st.Graph().N()
	d := &DynVote{
		st:  st,
		vn:  make([]int64, n),
		sc:  make([]int, n),
		tb:  make([]int, n),
		val: make([]int64, n),
	}
	for i := 0; i < n; i++ {
		d.vn[i] = 1
		d.sc[i] = n
		d.tb[i] = 0
	}
	d.last = 1
	return d
}

// canAccess evaluates the dynamic-linear condition for site x's partition,
// returning the participating members and the freshest copy's index.
func (d *DynVote) canAccess(x int) (members []int, freshest int, ok bool) {
	if !d.st.SiteUp(x) {
		return nil, -1, false
	}
	rep := d.st.ComponentOf(x)
	d.memberBuf = d.st.Members(rep, d.memberBuf[:0])
	members = d.memberBuf

	maxVN := int64(-1)
	for _, m := range members {
		if d.vn[m] > maxVN {
			maxVN = d.vn[m]
			freshest = m
		}
	}
	// U: members holding maxVN; the SC/tie-breaker of the last update are
	// recorded consistently at all of them.
	u := 0
	minU := -1
	for _, m := range members {
		if d.vn[m] == maxVN {
			u++
			if minU == -1 || m < minU {
				minU = m
			}
		}
	}
	sc := d.sc[freshest]
	switch {
	case 2*u > sc:
		return members, freshest, true
	case 2*u == sc && minU == d.tb[freshest]:
		// Exactly half, containing the designated tie-breaker site.
		return members, freshest, true
	default:
		return nil, -1, false
	}
}

// Access performs one access (dynamic voting does not distinguish reads
// from writes). On success every copy in the partition is refreshed and
// the update set becomes the partition. The returned version is the new
// globally-latest version.
func (d *DynVote) Access(x int, value int64) (version int64, granted bool) {
	members, freshest, ok := d.canAccess(x)
	if !ok {
		return 0, false
	}
	newVN := d.vn[freshest] + 1
	minMember := members[0]
	for _, m := range members {
		if m < minMember {
			minMember = m
		}
	}
	for _, m := range members {
		d.vn[m] = newVN
		d.sc[m] = len(members)
		d.tb[m] = minMember
		d.val[m] = value
	}
	if newVN <= d.last {
		panic(fmt.Sprintf("replica: dynamic voting version regressed: %d after %d", newVN, d.last))
	}
	d.last = newVN
	return newVN, true
}
