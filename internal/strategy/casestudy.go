package strategy

import "quorumkit/internal/rng"

// The quoracle paper's case study (Whittaker et al., §Case Study; Snippet 2
// in SNIPPETS.md): five nodes a..e with heterogeneous capacities and
// latencies, a majority quorum system, and a nonuniform distribution over
// read fractions skewed toward read-heavy workloads. The golden fixtures
// and the acceptance gate both run on this system, so it lives in the
// package rather than in test code.

// CaseStudySystem returns the 5-node case-study system under majority
// thresholds: unit votes, q_r = q_w = 3.
//
// Sites (index: name, write cap, read cap, latency):
//
//	0: a  2000  4000  1
//	1: b  1000  2000  1
//	2: c  2000  4000  3
//	3: d  1000  2000  4
//	4: e  2000  4000  5
func CaseStudySystem() System {
	return System{
		Votes:    []int{1, 1, 1, 1, 1},
		QR:       3,
		QW:       3,
		ReadCap:  []float64{4000, 2000, 4000, 2000, 4000},
		WriteCap: []float64{2000, 1000, 2000, 1000, 2000},
		Latency:  []float64{1, 1, 3, 4, 5},
	}
}

// CaseStudyFrDist returns the case study's read-fraction distribution: a
// workload mixture centered on fr ≈ 0.55, with the fully-read and
// fully-write regimes weighted zero.
func CaseStudyFrDist() FrDist {
	d, err := NewFrDist(map[float64]float64{
		1.0: 0,
		0.9: 10,
		0.8: 20,
		0.7: 100,
		0.6: 100,
		0.5: 100,
		0.4: 60,
		0.3: 30,
		0.2: 30,
		0.1: 20,
		0.0: 0,
	})
	if err != nil {
		panic(err) // static data; cannot fail
	}
	return d
}

// CaseStudyLoadLimit is the latency objective's per-site load cap from the
// case study: at most 1/2000 of unit throughput per site.
func CaseStudyLoadLimit() float64 { return 1.0 / 2000 }

// HeteroSystem draws an n-site unit-vote majority system with
// heterogeneous capacities and latencies, deterministic in the seed: the
// large-N system of `quorumsim strategy -sites` and of the strategy
// gate suite, which must agree draw for draw.
func HeteroSystem(n int, seed uint64) System {
	src := rng.New(seed)
	sys := System{
		Votes: make([]int, n), QR: n/2 + 1, QW: n/2 + 1,
		ReadCap:  make([]float64, n),
		WriteCap: make([]float64, n),
		Latency:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		sys.Votes[i] = 1
		sys.ReadCap[i] = 1000 + 3000*src.Float64()
		sys.WriteCap[i] = 500 + 1500*src.Float64()
		sys.Latency[i] = 1 + 9*src.Float64()
	}
	return sys
}
