package sim

import (
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

// This file is the simulation-side half of the large-N assignment kernel.
//
// An access is granted under assignment (q_r, q_w) iff the vote total v of
// the submitting site's component meets the quorum — a pure threshold test.
// The simulated trajectory (failures, repairs, access arrivals, the
// read/write coin flips) never depends on the assignment, so one batch
// simulation determines the grant/deny Counters of *every* assignment in
// the paper's family at once: tally accesses per vote total into read and
// write histograms, then a single O(T) suffix-sum pass yields
// ReadsGranted(q_r) = Σ_{v≥q_r} reads(v) and WritesGranted(q_w) likewise
// for all ⌊T/2⌋ family members. The seed path (kept as the test oracle
// sweepReference) instead ran a full simulation per family member — O(T)
// simulations of the identical trajectory — which is what made
// thousand-site sweeps intractable.

// familyTally accumulates one batch's accesses by component vote total,
// split by the read/write coin. Index v ∈ [0, T]; v = 0 is a down site.
type familyTally struct {
	reads  []int64
	writes []int64
}

func newFamilyTally(T int) *familyTally {
	return &familyTally{reads: make([]int64, T+1), writes: make([]int64, T+1)}
}

func (t *familyTally) reset() {
	for i := range t.reads {
		t.reads[i] = 0
	}
	for i := range t.writes {
		t.writes[i] = 0
	}
}

// Sweep measures every assignment in the paper's family
// {(q_r, T−q_r+1) : 1 ≤ q_r ≤ ⌊T/2⌋} by direct simulation and returns the
// measurements indexed by q_r−1.
//
// Each batch is simulated once, in family-tally mode, and the Counters of
// every assignment are derived from the tally by one suffix-sum pass; each
// assignment then applies the serial convergence rule independently over
// the per-batch counters, with batches ending once every assignment has
// converged. The result is bit-identical to calling MeasureAvailability
// per family member with the same configuration (the per-assignment
// Counters are the same integers, so every downstream float is the same),
// at roughly 1/⌊T/2⌋ of the simulation work.
//
// A registry in cfg.Obs observes the shared trajectory once per batch:
// topology counters and trace events flow as usual, but the per-access
// grant/deny counters stay untouched — grant-ness is assignment-dependent
// and has no single value during a family sweep.
func Sweep(g *graph.Graph, votes []int, p Params, alpha float64,
	cfg StudyConfig) ([]Measurement, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	st := graph.NewState(g, votes)
	T := st.TotalVotes()
	family := quorum.Enumerate(T)
	if len(family) == 0 {
		return nil, nil
	}

	accs := make([]batchAccumulator, len(family))
	remaining := len(accs)
	tally := newFamilyTally(T)
	// suff*[v] = number of measured accesses whose component held ≥ v votes.
	suffR := make([]int64, T+2)
	suffW := make([]int64, T+2)

	s := New(g, votes, p, cfg.Seed)
	if cfg.Obs != nil {
		s.AttachObs(cfg.Obs)
	}
	for b := 0; b < cfg.MaxBatches && remaining > 0; b++ {
		if b > 0 {
			s.Reset(cfg.Seed + uint64(b))
		}
		s.setFamilyTally(tally, alpha)
		s.RunAccesses(cfg.Warmup)
		tally.reset() // discard the warm-up prefix, as ResetCounters does
		s.RunAccesses(cfg.BatchAccesses)

		for v := T; v >= 0; v-- {
			suffR[v] = suffR[v+1] + tally.reads[v]
			suffW[v] = suffW[v+1] + tally.writes[v]
		}
		totalR, totalW := suffR[0], suffW[0]
		for i := range accs {
			if accs[i].done {
				continue
			}
			c := Counters{
				ReadsGranted:  suffR[family[i].QR],
				ReadsDenied:   totalR - suffR[family[i].QR],
				WritesGranted: suffW[family[i].QW],
				WritesDenied:  totalW - suffW[family[i].QW],
			}
			accs[i].add(c, alpha, cfg)
			if accs[i].done {
				remaining--
			}
		}
		tally.reset()
	}

	out := make([]Measurement, len(accs))
	for i := range accs {
		out[i] = accs[i].measurement()
	}
	return out, nil
}
