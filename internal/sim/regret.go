package sim

// Epoch accounting for the adversarial regret harness (see
// internal/cluster's RunAdversary). An EpochTally accumulates, per epoch,
// what the serving layer actually experienced: the realized read fraction
// and the empirical distribution of component vote totals reachable at the
// coordinators of read and write attempts. From that record the oracle
// availability is one O(T) curve-kernel call: the best A(α, q_r) an
// optimizer re-run on this epoch's true workload and fault pattern could
// have chosen — the paper's Figure 1 optimum evaluated against the
// empirical densities instead of a failure model. The gap between that
// oracle and the realized grant rate, summed over epochs weighted by
// operation count, is the cumulative regret of whatever assignment policy
// actually ran.

import (
	"fmt"

	"quorumkit/internal/core"
	"quorumkit/internal/dist"
)

// EpochTally accumulates one epoch's operations.
type EpochTally struct {
	total int // T, the system vote total

	readVotes  []float64 // empirical density of reachable votes at read coordinators
	writeVotes []float64 // same for writes
	reads      int64
	writes     int64
	granted    int64

	scratchR []float64
	scratchW []float64
	curve    []float64
}

// NewEpochTally builds a tally for a system holding totalVotes votes. It
// panics on a total below 2: with one vote the paper's family
// {(q_r, T−q_r+1)} is empty and the epoch has no oracle.
func NewEpochTally(totalVotes int) *EpochTally {
	if totalVotes < 2 {
		panic(fmt.Sprintf("sim: NewEpochTally totalVotes=%d", totalVotes))
	}
	return &EpochTally{
		total:      totalVotes,
		readVotes:  make([]float64, totalVotes+1),
		writeVotes: make([]float64, totalVotes+1),
	}
}

// Record adds one operation: its kind, the votes reachable from its
// coordinator when it ran (clamped into [0, T]), and whether it was
// granted.
func (e *EpochTally) Record(read bool, votes int, granted bool) {
	if votes < 0 {
		votes = 0
	}
	if votes > e.total {
		votes = e.total
	}
	if read {
		e.reads++
		e.readVotes[votes]++
	} else {
		e.writes++
		e.writeVotes[votes]++
	}
	if granted {
		e.granted++
	}
}

// Ops returns the number of operations recorded this epoch.
func (e *EpochTally) Ops() int64 { return e.reads + e.writes }

// Alpha returns the realized read fraction (0 with no operations).
func (e *EpochTally) Alpha() float64 {
	ops := e.Ops()
	if ops == 0 {
		return 0
	}
	return float64(e.reads) / float64(ops)
}

// GrantRate returns the realized grant rate (0 with no operations).
func (e *EpochTally) GrantRate() float64 {
	ops := e.Ops()
	if ops == 0 {
		return 0
	}
	return float64(e.granted) / float64(ops)
}

// Reset clears the tally for the next epoch.
func (e *EpochTally) Reset() {
	for i := range e.readVotes {
		e.readVotes[i] = 0
		e.writeVotes[i] = 0
	}
	e.reads, e.writes, e.granted = 0, 0, 0
}

// OracleAvailability evaluates the epoch's oracle: the availability of the
// best assignment an optimizer re-run on the epoch's realized read
// fraction and empirical vote densities would have installed, together
// with that assignment's read quorum. With no operations recorded it
// returns (0, 0).
//
// This is exactly the paper's A(α, q_r) = α·P(v ≥ q_r) + (1−α)·P(v ≥ q_w)
// maximized over the family, evaluated by the O(T) curve kernel against
// the densities the epoch actually produced — so it equals the expected
// grant rate of the oracle policy on this epoch's operation mix.
func (e *EpochTally) OracleAvailability() (best float64, qr int) {
	ops := e.Ops()
	if ops == 0 {
		return 0, 0
	}
	alpha := e.Alpha()
	r := e.normalize(e.readVotes, e.reads, &e.scratchR)
	w := e.normalize(e.writeVotes, e.writes, &e.scratchW)
	// A side with no operations contributes weight 0 to the blend; its
	// density only has to be well-formed, so reuse the other side's.
	if e.reads == 0 {
		r = w
	}
	if e.writes == 0 {
		w = r
	}
	e.curve = core.AvailabilityCurveInto(alpha, dist.PMF(r), dist.PMF(w), e.curve)
	qr, best = core.OptimizeCurve(e.curve)
	return best, qr
}

// normalize scales a vote histogram into a probability density, reusing
// the given scratch slice.
func (e *EpochTally) normalize(hist []float64, n int64, scratch *[]float64) []float64 {
	if cap(*scratch) < len(hist) {
		*scratch = make([]float64, len(hist))
	}
	out := (*scratch)[:len(hist)]
	if n == 0 {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	inv := 1 / float64(n)
	for i, c := range hist {
		out[i] = c * inv
	}
	return out
}
