package cluster

import (
	"fmt"

	"quorumkit/internal/core"
	"quorumkit/internal/quorum"
)

// This file realizes §4.2–4.3 at message level: each node records the vote
// total of its component whenever it participates in a vote-collection
// round ("site i can record the totals received while performing other
// functions required by the consistency control algorithm"), a gossip
// round collects the per-site histograms, and any node can then run the
// Figure-1 optimization and install the result through the QR protocol —
// the complete distributed on-line pipeline.

// effectiveAssignment runs a vote round to discover the assignment in
// effect at node x's component.
func (k *coordinator) effectiveAssignment(x int) (quorum.Assignment, int64, bool) {
	if !k.tr.siteUp(x) {
		return quorum.Assignment{}, 0, false
	}
	_, eff, _, _, _ := k.collect(x, OpRead, false)
	return eff.Assignment(), eff.Version, true
}

// gossipEstimates runs a histogram-collection round from node x and
// assembles a network-wide estimator from x's own row and the rows of the
// peers that answered; each site contributes once. The estimator is the
// coordinator's round scratch (k.est), valid until the next gossip round.
func (k *coordinator) gossipEstimates(x int) (*core.Estimator, error) {
	if !k.tr.siteUp(x) {
		return nil, fmt.Errorf("cluster: gossip: node %d is down", x)
	}
	T := k.st.TotalVotes()
	if k.est == nil {
		k.est = core.NewEstimator(len(k.all), T)
	} else {
		k.est.Reset()
	}
	est := k.est
	self := k.tr.lock(x)
	for v, w := range self.hist {
		if w > 0 && v <= T {
			est.ObserveFor(x, v, w)
		}
	}
	k.tr.unlock(x)
	replies, _ := k.tr.exchange(x, k.all, msg{tag: tagHistRequest})
	for _, r := range k.dedup(replies) { // each site contributes once
		for v, w := range r.row() {
			if w > 0 && v <= T {
				est.ObserveFor(int(r.from), v, w)
			}
		}
	}
	return est, nil
}

// optimizeLocal runs the Figure-1 algorithm at node x from gossiped
// estimates. The model is rebuilt in the coordinator's round scratch
// (k.model), so it is valid until the next gossip round.
func (k *coordinator) optimizeLocal(x int, alpha float64) (core.Model, core.Result, error) {
	est, err := k.gossipEstimates(x)
	if err != nil {
		return core.Model{}, core.Result{}, err
	}
	if err := est.UniformModelInto(&k.model); err != nil {
		return core.Model{}, core.Result{}, err
	}
	return k.model, k.model.Optimize(alpha), nil
}

// reassignOptimal performs the full §4.3 loop at node x: gossip the
// on-line estimates, compute the optimal assignment, and install it via
// the QR protocol when it differs from the one in effect and predicts an
// improvement of at least hysteresis. It reports whether a reassignment
// was installed.
func (k *coordinator) reassignOptimal(x int, alpha, hysteresis float64) (bool, error) {
	if !k.tr.siteUp(x) {
		return false, fmt.Errorf("cluster: reassign-optimal: node %d is down", x)
	}
	model, want, err := k.optimizeLocal(x, alpha)
	if err != nil {
		return false, err
	}
	current, _, ok := k.effectiveAssignment(x)
	if !ok {
		return false, fmt.Errorf("cluster: reassign-optimal: node %d lost its component", x)
	}
	if !model.Improves(alpha, want.Assignment, current, hysteresis) {
		return false, nil
	}
	if err := k.reassign(x, want.Assignment); err != nil {
		return false, nil // component lacks the write quorum right now
	}
	return true, nil
}
