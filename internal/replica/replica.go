// Package replica implements the replicated-database substrate: a single
// logical data object with one physical copy per site, accessed under the
// quorum consensus protocol, plus the paper's dynamic quorum reassignment
// protocol (QR, §2.2) with version-numbered assignments.
//
// The model follows the paper's system model (§5.1): events are
// instantaneous, sites within a connected component can exchange state
// freely, and an access submitted at a down site (a component of zero
// votes) is denied.
//
// Within a component the copies synchronize continuously — the paper's
// protocol collects votes from every site in the component on each access,
// and on a merge "every site in C2 updates their quorum assignment and
// version vector". We extend the same merge rule to the data value itself
// (each copy adopts the freshest value reachable in its component). This is
// the standard refinement that makes dynamic reassignment to extreme
// quorums such as (q_r=1, q_w=T) safe: installation of a new assignment
// refreshes every copy in the installing component, so a later read quorum
// under the new assignment cannot miss the most recent write. DESIGN.md
// records this as part of the QR implementation.
package replica

import (
	"fmt"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

// Object is one replicated data object over a network state. The network
// state is shared with (and mutated by) the failure simulator; Object only
// reads it.
type Object struct {
	st     *graph.State
	copies []quorum.Copy

	nextStamp   int64 // global logical clock for writes
	latestStamp int64 // stamp of the most recent granted write (ground truth for tests)

	memberBuf []int
}

// NewObject creates the replicated object with every copy holding the
// initial assignment at version 1, value 0 at stamp 0.
func NewObject(st *graph.State, initial quorum.Assignment) (*Object, error) {
	if err := initial.Validate(st.TotalVotes()); err != nil {
		return nil, fmt.Errorf("replica: initial assignment: %w", err)
	}
	o := &Object{st: st, copies: make([]quorum.Copy, st.Graph().N())}
	for i := range o.copies {
		o.copies[i] = quorum.Copy{Version: 1, QR: initial.QR, QW: initial.QW}
	}
	return o, nil
}

// State returns the underlying network state.
func (o *Object) State() *graph.State { return o.st }

// Clone returns an independent copy of the object bound to the given
// (typically cloned) network state. Used by exhaustive protocol
// exploration.
func (o *Object) Clone(st *graph.State) *Object {
	return &Object{
		st:          st,
		copies:      append([]quorum.Copy(nil), o.copies...),
		nextStamp:   o.nextStamp,
		latestStamp: o.latestStamp,
	}
}

// LatestStamp returns the stamp of the most recent granted write — the
// value every granted read must return under one-copy serializability.
func (o *Object) LatestStamp() int64 { return o.latestStamp }

// Copy returns site i's copy (exposed for invariant checks and the
// exhaustive explorer's state encoding).
func (o *Object) Copy(i int) quorum.Copy { return o.copies[i] }

// sync brings every copy in the component of site x up to the component's
// newest assignment version and freshest value, returning the members and
// the effective (synced) copy state. It models the intra-component exchange
// that vote collection performs on every operation. Caller guarantees the
// site is up.
func (o *Object) sync(x int) (members []int, eff quorum.Copy) {
	rep := o.st.ComponentOf(x)
	o.memberBuf = o.st.Members(rep, o.memberBuf[:0])
	members = o.memberBuf
	eff = o.copies[members[0]]
	for _, m := range members[1:] {
		eff.Adopt(o.copies[m])
	}
	for _, m := range members {
		o.copies[m] = eff
	}
	return members, eff
}

// EffectiveAssignment returns the quorum assignment in effect for accesses
// submitted to site x — the assignment with the highest version number in
// x's component (paper §2.2) — and its version. ok is false when the site
// is down.
func (o *Object) EffectiveAssignment(x int) (a quorum.Assignment, version int64, ok bool) {
	if !o.st.SiteUp(x) {
		return quorum.Assignment{}, 0, false
	}
	_, eff := o.sync(x)
	return eff.Assignment(), eff.Version, true
}

// Read submits a read access at site x. It returns the value and its stamp,
// with granted=false when the access is denied (site down or read quorum
// not met).
func (o *Object) Read(x int) (value int64, stamp int64, granted bool) {
	if !o.st.SiteUp(x) {
		return 0, 0, false
	}
	_, eff := o.sync(x)
	if o.st.VotesAt(x) < eff.QR {
		return 0, 0, false
	}
	return eff.Value, eff.Stamp, true
}

// Write submits a write access at site x. When granted, every copy in the
// component is updated with a fresh stamp.
func (o *Object) Write(x int, value int64) bool {
	if !o.st.SiteUp(x) {
		return false
	}
	members, eff := o.sync(x)
	if o.st.VotesAt(x) < eff.QW {
		return false
	}
	o.nextStamp++
	for _, m := range members {
		o.copies[m].Value = value
		o.copies[m].Stamp = o.nextStamp
	}
	o.latestStamp = o.nextStamp
	return true
}

// Reassign attempts to install a new quorum assignment from site x using
// the QR protocol: the installation is permitted only in a component
// holding at least a write quorum of votes under the assignment currently
// in effect. On success every copy in the component receives the new
// assignment with an incremented version number (and, by sync, the current
// value — see the package comment).
func (o *Object) Reassign(x int, a quorum.Assignment) error {
	if err := a.Validate(o.st.TotalVotes()); err != nil {
		return fmt.Errorf("replica: reassign: %w", err)
	}
	if !o.st.SiteUp(x) {
		return fmt.Errorf("replica: reassign: site %d is down", x)
	}
	members, eff := o.sync(x)
	if o.st.VotesAt(x) < eff.QW {
		return fmt.Errorf("replica: reassign: component holds %d votes, need write quorum %d",
			o.st.VotesAt(x), eff.QW)
	}
	for _, m := range members {
		c := &o.copies[m]
		c.QR, c.QW, c.Version = a.QR, a.QW, eff.Version+1
	}
	return nil
}

// WriteCapable reports whether an access submitted at site x would be
// granted a write under the assignment currently in effect there.
func (o *Object) WriteCapable(x int) bool {
	if !o.st.SiteUp(x) {
		return false
	}
	_, eff := o.sync(x)
	return o.st.VotesAt(x) >= eff.QW
}

// WriteCapableComponents counts the components that would currently grant
// a write. The QR protocol's safety argument requires this never to exceed
// one; the randomized protocol tests assert it.
func (o *Object) WriteCapableComponents() int {
	n := 0
	var reps []int
	reps = o.st.Representatives(reps)
	for _, rep := range reps {
		if o.WriteCapable(rep) {
			n++
		}
	}
	return n
}
