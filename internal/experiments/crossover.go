package experiments

import (
	"fmt"

	"quorumkit/internal/core"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/sim"
	"quorumkit/internal/topo"
)

// OptimumClass classifies the optimal assignment for one read fraction.
type OptimumClass int

// Classes of optimum location.
const (
	// AtMajority: the optimum is (within eps) the majority endpoint.
	AtMajority OptimumClass = iota
	// AtReadOne: the optimum is (within eps) the q_r=1 endpoint.
	AtReadOne
	// Interior: the optimum strictly beats both endpoints.
	Interior
)

// String implements fmt.Stringer.
func (c OptimumClass) String() string {
	switch c {
	case AtMajority:
		return "majority"
	case AtReadOne:
		return "q_r=1"
	case Interior:
		return "interior"
	default:
		return fmt.Sprintf("OptimumClass(%d)", int(c))
	}
}

// ClassifyOptimum locates the optimum of A(α, ·), reading near-ties
// (within eps) as endpoint optima.
func ClassifyOptimum(m core.Model, alpha, eps float64) OptimumClass {
	res := m.Optimize(alpha)
	a1 := m.Availability(alpha, 1)
	aMaj := m.Availability(alpha, m.MaxReadQuorum())
	switch {
	case res.Availability <= a1+eps:
		return AtReadOne
	case res.Availability <= aMaj+eps:
		return AtMajority
	default:
		return Interior
	}
}

// CrossoverAlpha finds the read fraction at which the optimal assignment
// leaves the majority endpoint: the largest α for which majority is still
// optimal (within eps). It assumes the empirically-observed monotone
// structure (majority optimal at low α, read-one at high α) and binary
// searches to the given tolerance. Returns 0 when majority is never
// optimal and 1 when it always is.
func CrossoverAlpha(m core.Model, eps, tol float64) float64 {
	isMaj := func(alpha float64) bool {
		return ClassifyOptimum(m, alpha, eps) == AtMajority
	}
	if !isMaj(0) {
		return 0
	}
	if isMaj(1) {
		return 1
	}
	lo, hi := 0.0, 1.0 // invariant: isMaj(lo), !isMaj(hi)
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if isMaj(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// CrossoverRow is one topology's crossover result.
type CrossoverRow struct {
	Topology string
	Chords   int
	Alpha    float64 // majority optimal for read fractions up to here
}

// CrossoverTable computes, for each topology, the read fraction where the
// optimum leaves the majority endpoint — quantifying §5.5's observation
// that denser topologies keep majority optimal across wider read mixes.
func CrossoverTable(params sim.Params, cfg sim.CollectConfig, chordCounts []int) ([]CrossoverRow, error) {
	var out []CrossoverRow
	for _, chords := range chordCounts {
		g := topo.Paper(chords)
		model, _, err := sim.Collect(g, nil, params, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, CrossoverRow{
			Topology: topo.Name(chords),
			Chords:   chords,
			Alpha:    CrossoverAlpha(model, 0.002, 0.01),
		})
	}
	return out, nil
}

// LanWanRow compares a LAN/WAN clustered deployment against a flat ring of
// equal size: same number of sites, very different partition structure
// (clusters rarely split internally; the WAN ring is the fault line).
type LanWanRow struct {
	Name     string
	Sites    int
	Links    int
	Optimal  core.Result
	Majority float64 // availability of the majority assignment
	ReadOne  float64 // availability of read-one/write-all
}

// LanWanStudy evaluates both topologies at the given read fraction with
// the paper's reliability parameters, returning the clustered row first.
func LanWanStudy(clusters, size int, alpha float64, accesses int64, seed uint64) ([]LanWanRow, error) {
	n := clusters * size
	lanwan := topo.Clusters(clusters, size)
	ring := graph.Ring(n)
	params := sim.PaperParams()
	var out []LanWanRow
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{fmt.Sprintf("%d clusters × %d", clusters, size), lanwan},
		{fmt.Sprintf("ring of %d", n), ring},
	} {
		m, _, err := sim.Collect(tc.g, nil, params, sim.CollectConfig{
			Mode: sim.TimeWeighted, Accesses: accesses, Warmup: accesses / 20, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, LanWanRow{
			Name:     tc.name,
			Sites:    tc.g.N(),
			Links:    tc.g.M(),
			Optimal:  m.Optimize(alpha),
			Majority: m.Availability(alpha, m.MaxReadQuorum()),
			ReadOne:  m.Availability(alpha, 1),
		})
	}
	return out, nil
}

// OmegaRow is one point of the §5.4 weighted-objective sweep.
type OmegaRow struct {
	Omega      float64
	Assignment quorum.Assignment
	ReadAvail  float64
	WriteAvail float64
}

// OmegaSweep traces the paper's *first* §5.4 technique — weighting writes
// by ω in the objective A(ω, α, q) — across a grid of weights. The paper
// declines to plot it because "there are infinitely many choices for ω and
// no clear criteria for choosing a value"; the sweep makes the trade-off
// concrete: as ω grows the optimum walks monotonically from the read
// endpoint toward majority, visiting assignments that the second
// (write-floor) technique selects via an interpretable constraint instead.
func OmegaSweep(m core.Model, alpha float64, omegas []float64) []OmegaRow {
	out := make([]OmegaRow, 0, len(omegas))
	for _, omega := range omegas {
		res := m.OptimizeWeighted(omega, alpha)
		out = append(out, OmegaRow{
			Omega:      omega,
			Assignment: res.Assignment,
			ReadAvail:  m.ReadAvail(res.Assignment.QR),
			WriteAvail: m.WriteAvailForReadQuorum(res.Assignment.QR),
		})
	}
	return out
}

// BenefitStudy quantifies the value of replication itself, in the spirit
// of the paper's companion result (reference [15], "a tight upper bound on
// the benefits of replication"): the best replicated availability against
// the best single-copy (primary copy) availability on the same network.
type BenefitStudy struct {
	Replicated core.Result // optimal quorum consensus with one copy per site
	// SingleCopy is the availability of the best primary-copy placement:
	// an access succeeds iff the submitter can reach the primary.
	SingleCopy     float64
	BestPrimary    int
	Ratio          float64 // Replicated.Availability / SingleCopy
	SiteReliabilty float64 // p, the hard ACC ceiling from §3
}

// ReplicationBenefit measures both arms from simulations of the same
// topology. The primary-copy arm gives the primary all votes, making the
// component-of-submitter distribution directly reusable.
func ReplicationBenefit(chords int, alpha float64, params sim.Params,
	cfg sim.CollectConfig) (BenefitStudy, error) {
	g := topo.Paper(chords)
	model, _, err := sim.Collect(g, nil, params, cfg)
	if err != nil {
		return BenefitStudy{}, err
	}
	repl := model.Optimize(alpha)

	// Primary-copy arm: votes concentrated at one site; T = 1 and
	// q_r = q_w = 1, so availability is P[submitter reaches the primary].
	// Try a few well-spread primaries and keep the best.
	best := -1.0
	bestSite := 0
	for _, primary := range []int{0, g.N() / 4, g.N() / 2} {
		votes := quorum.PrimaryCopyVotes(g.N(), primary)
		pcCfg := cfg
		pcCfg.Seed += uint64(primary) + 1
		pcModel, _, err := sim.Collect(g, votes, params, pcCfg)
		if err != nil {
			return BenefitStudy{}, err
		}
		// T = 1: any access needs the single vote.
		a := pcModel.Availability(alpha, 1)
		if a > best {
			best, bestSite = a, primary
		}
	}
	out := BenefitStudy{
		Replicated:     repl,
		SingleCopy:     best,
		BestPrimary:    bestSite,
		SiteReliabilty: params.Reliability(),
	}
	if best > 0 {
		out.Ratio = repl.Availability / best
	}
	return out, nil
}
