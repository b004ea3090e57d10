package votes

// Objectives of the weighted-vote search. Two are provided: the paper's ACC
// availability (AvailObjective in scenario.go: exact over enumerated
// configurations, or over a frozen sample at scale) and the throughput
// capacity of the induced threshold quorum system under the majority
// pairing, solved by the certified LP machinery of internal/strategy. The
// search engines in search.go are objective-generic.

import (
	"fmt"

	"quorumkit/internal/quorum"
	"quorumkit/internal/strategy"
)

// ObjValue is one scored candidate: the objective value to maximize and the
// read/write threshold pair the score was achieved at (what the certifier
// certifies and the runtime would install).
type ObjValue struct {
	Value      float64
	Assignment quorum.Assignment
}

// Objective scores weight vectors. Implementations may reuse internal
// buffers across Eval calls and are not required to be concurrency-safe;
// they must be deterministic (same vector, same answer).
type Objective interface {
	Name() string
	Eval(v quorum.VoteAssignment) (ObjValue, error)
}

// CapacityObjective scores a weight vector by the certified peak throughput
// of the threshold quorum system it induces under the majority pairing
// q_r = ⌊T/2⌋, q_w = T − q_r + 1: the weighted quorum pools are fed into
// internal/strategy's capacity LP, and the optimal randomized strategy's
// capacity (1 / expected bottleneck load) is the score. Topology-free, like
// the quorum-system model it optimizes. Every evaluation re-checks the LP's
// KKT certificate, at tolerance capacityCertTol, so an accepted candidate
// carries a proof of its score.
type CapacityObjective struct {
	ReadCap  []float64
	WriteCap []float64
	Dist     strategy.FrDist
}

// capacityCertTol is the tolerance every capacity certificate is re-checked
// at.
const capacityCertTol = 1e-9

// Name implements Objective.
func (o CapacityObjective) Name() string { return "capacity" }

// Eval implements Objective. A vector with a single vote has no majority
// pairing (q_r = ⌊1/2⌋ = 0 is no quorum); it is scored at the one threshold
// pair T = 1 admits, q_r = q_w = 1: the site holding the vote serves every
// access.
func (o CapacityObjective) Eval(v quorum.VoteAssignment) (ObjValue, error) {
	var sys strategy.System
	var err error
	if v.Total() == 1 {
		sys = strategy.System{Votes: v, QR: 1, QW: 1, ReadCap: o.ReadCap, WriteCap: o.WriteCap, Latency: make([]float64, len(v))}
		err = sys.Validate()
	} else {
		sys, err = strategy.MajoritySystem(v, o.ReadCap, o.WriteCap, nil)
	}
	if err != nil {
		return ObjValue{}, err
	}
	res, err := strategy.OptimizeCapacity(sys, o.Dist, strategy.Options{})
	if err != nil {
		return ObjValue{}, err
	}
	if err := res.Certify(capacityCertTol); err != nil {
		return ObjValue{}, fmt.Errorf("votes: capacity certificate: %w", err)
	}
	return ObjValue{
		Value:      res.Capacity,
		Assignment: quorum.Assignment{QR: sys.QR, QW: sys.QW},
	}, nil
}
