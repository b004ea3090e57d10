package experiments

import (
	"quorumkit/internal/core"
	"quorumkit/internal/dist"
	"quorumkit/internal/sim"
	"quorumkit/internal/topo"
)

// SearchAblation is the step-4 ablation of Figure 1 on the fully-connected
// paper model (101 sites, p = r = 0.96) at α = .75: the objective
// evaluations each search strategy spends, and whether all three land on
// the same optimum.
type SearchAblation struct {
	Exhaustive, Golden, Parabolic int
	Agree                         bool
}

// SearchEvaluations runs the three optimizers on the same model.
func SearchEvaluations() (SearchAblation, error) {
	m, err := core.ModelFromSingleDensity(dist.Complete(101, 0.96, 0.96))
	if err != nil {
		return SearchAblation{}, err
	}
	ex, gd, pb := m.Optimize(0.75), m.OptimizeGolden(0.75), m.OptimizeParabolic(0.75)
	return SearchAblation{
		Exhaustive: ex.Evaluations,
		Golden:     gd.Evaluations,
		Parabolic:  pb.Evaluations,
		Agree:      gd.Availability == ex.Availability && pb.Availability == ex.Availability,
	}, nil
}

// EstimatorModes compares the paper's sampled on-line estimator with the
// time-weighted (PASTA) variant at an equal 40k-access horizon on topology
// 4: each one's squared error against a 300k-access time-weighted
// reference, summed over q_r = 1..50 at α = .5. The reference and the two
// short runs take distinct seeds derived from seed; both short runs share
// one.
func EstimatorModes(seed uint64) (sampled, timeWeighted float64, err error) {
	g := topo.Paper(4)
	p := sim.PaperParams()
	ref, _, err := sim.Collect(g, nil, p, sim.CollectConfig{
		Mode: sim.TimeWeighted, Accesses: 300_000, Warmup: 10_000, Seed: seed + 998,
	})
	if err != nil {
		return 0, 0, err
	}
	short := sim.CollectConfig{Mode: sim.Sampled, Accesses: 40_000, Warmup: 4_000, Seed: seed + 4}
	ms, _, err := sim.Collect(g, nil, p, short)
	if err != nil {
		return 0, 0, err
	}
	short.Mode = sim.TimeWeighted
	mw, _, err := sim.Collect(g, nil, p, short)
	if err != nil {
		return 0, 0, err
	}
	for qr := 1; qr <= 50; qr++ {
		want := ref.Availability(0.5, qr)
		dS, dW := ms.Availability(0.5, qr)-want, mw.Availability(0.5, qr)-want
		sampled += dS * dS
		timeWeighted += dW * dW
	}
	return sampled, timeWeighted, nil
}
