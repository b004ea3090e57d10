package coterie

import (
	"fmt"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

// Object is a replicated data object whose grant rule is a general
// quorum.System rather than a vote count — the executable counterpart of the
// availability analysis in this package. Within a component, copies
// synchronize on every operation (the same §5.1 instantaneous-exchange
// model as the vote-based replica.Object); a read or write is granted iff
// the component's site set satisfies the read or write expression.
//
// Coterie systems have no dynamic reassignment here: unlike vote/quorum
// pairs they carry no natural version-ordered family, which is exactly the
// gap the paper notes in Herlihy's hierarchy (no mechanism for selecting
// and ordering quorums).
type Object struct {
	st     *graph.State
	sys    quorum.System
	stamps []int64
	values []int64

	next   int64
	latest int64

	memberBuf []int
}

// NewObject creates the coterie-governed object. The system must be valid
// and the network must have at most 64 sites (Group limit).
func NewObject(st *graph.State, sys quorum.System) (*Object, error) {
	if st.Graph().N() > 64 {
		return nil, fmt.Errorf("coterie: object supports ≤ 64 sites, got %d", st.Graph().N())
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	n := st.Graph().N()
	return &Object{
		st:     st,
		sys:    sys,
		stamps: make([]int64, n),
		values: make([]int64, n),
	}, nil
}

// LatestStamp returns the most recent committed write's stamp.
func (o *Object) LatestStamp() int64 { return o.latest }

// sync refreshes every copy in x's component to the freshest value there
// and returns the members, their group, and the freshest stamp/value.
func (o *Object) sync(x int) (members []int, comp quorum.Group, stamp, value int64) {
	rep := o.st.ComponentOf(x)
	o.memberBuf = o.st.Members(rep, o.memberBuf[:0])
	members, comp = o.memberBuf, quorum.NewGroup(o.memberBuf...)
	for _, m := range members {
		if o.stamps[m] > stamp {
			stamp, value = o.stamps[m], o.values[m]
		}
	}
	for _, m := range members {
		o.stamps[m], o.values[m] = stamp, value
	}
	return members, comp, stamp, value
}

// Read submits a read at site x.
func (o *Object) Read(x int) (value int64, stamp int64, granted bool) {
	if !o.st.SiteUp(x) {
		return 0, 0, false
	}
	_, comp, stamp, value := o.sync(x)
	if !o.sys.Read.Holds(comp) {
		return 0, 0, false
	}
	return value, stamp, true
}

// Write submits a write at site x; on success every copy in the component
// is updated.
func (o *Object) Write(x int, value int64) bool {
	if !o.st.SiteUp(x) {
		return false
	}
	members, comp, _, _ := o.sync(x)
	if !o.sys.Write.Holds(comp) {
		return false
	}
	o.next++
	for _, m := range members {
		o.stamps[m], o.values[m] = o.next, value
	}
	o.latest = o.next
	return true
}

// WriteCapableComponents counts components currently able to write (≤ 1
// for any valid system, by the w-w intersection property — but only while
// every write updates all copies it can reach; the tests assert it).
func (o *Object) WriteCapableComponents() int {
	count := 0
	var reps []int
	reps = o.st.Representatives(reps)
	for _, rep := range reps {
		if o.sys.Write.Holds(quorum.NewGroup(o.st.Members(rep, nil)...)) {
			count++
		}
	}
	return count
}
