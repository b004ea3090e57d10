package votes

// This file is the evaluation engine of the weighted-vote search. A failure
// configuration fixes which sites and links are up and therefore the
// connected components, while a candidate weight vector only re-prices each
// component. So configurations are turned into components ONCE and shared
// by every candidate: evaluating a candidate is one O(C·n) pass re-summing
// weights over the frozen components plus one O(T) availability-curve
// kernel call — no graph work, no fresh randomness, and bit-identical
// comparisons between candidates.
//
// Two constructors fill the same structure. ExactScenarios enumerates all
// 2^(n+m) configurations — the only exact method, computing f_i(v) being
// #P-complete — and keeps each distinct component once, weighted by the
// probability that it occurs. SampleScenarios freezes a Monte-Carlo sample
// (common random numbers) for topologies past that enumeration's reach; its
// sampler consumes the RNG stream exactly like dist.MonteCarlo (per
// scenario: every site, then every link), so the metamorphic tests can
// assert that the aggregate density produced here equals the mixture of
// dist.MonteCarlo's per-site densities under the same seed, for any weight
// vector.

import (
	"fmt"
	"math"
	"math/bits"

	"quorumkit/internal/core"
	"quorumkit/internal/dist"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
)

// Scenarios is a set of failure configurations of one topology, kept as all
// the availability objective reads of them: the connected components of up
// sites that occur, each with a weight, and the weight of the down sites
// (each a zero-vote observation). The aggregate density is linear in
// these, so no configuration needs to be kept whole.
type Scenarios struct {
	n     int
	count int // sampled configurations; 0 for ExactScenarios

	// members holds the sites of every component, grouped by component;
	// compEnd[c] is the end offset of component c in members.
	members []int32
	compEnd []int32
	// weight[c] is the probability that component c occurs, over n: the
	// mass each of its site observations adds to the aggregate density. nil
	// for a sample, whose components are listed once per occurrence, count
	// once each and are normalized by count·n.
	weight []float64
	// down is the down-site observations' count (a sample) or mass (exact).
	down float64
}

// SampleScenarios draws count independent failure configurations of g (site
// reliability p, link reliability r) from a fresh stream seeded with seed,
// consuming randomness exactly as dist.MonteCarlo does. The result depends
// only on (g, p, r, count, seed) — never on the weight vectors later
// evaluated against it.
func SampleScenarios(g *graph.Graph, p, r float64, count int, seed uint64) (*Scenarios, error) {
	if count <= 0 {
		return nil, fmt.Errorf("votes: scenario count %d", count)
	}
	if err := checkReliabilities(p, r); err != nil {
		return nil, err
	}
	n := g.N()
	src := rng.New(seed)
	st := graph.NewState(g, quorum.UniformVotes(n))
	sc := &Scenarios{n: n, count: count, compEnd: make([]int32, 0, count*2)}
	pos := make([]int32, n) // per-representative write cursor into members
	for s := 0; s < count; s++ {
		for i := 0; i < n; i++ {
			if src.Bernoulli(p) {
				st.RepairSite(i)
			} else {
				st.FailSite(i)
			}
		}
		for l := 0; l < g.M(); l++ {
			if src.Bernoulli(r) {
				st.RepairLink(l)
			} else {
				st.FailLink(l)
			}
		}
		// Record the components: representatives in increasing site order,
		// members of each component contiguous.
		base := int32(len(sc.members))
		off := base
		for i := 0; i < n; i++ {
			rep := st.ComponentOf(i)
			if rep < 0 {
				sc.down++
				continue
			}
			if rep == i {
				pos[i] = off
				off += int32(st.SizeAt(i))
				sc.compEnd = append(sc.compEnd, off)
			}
		}
		sc.members = append(sc.members, make([]int32, off-base)...)
		for i := 0; i < n; i++ {
			if rep := st.ComponentOf(i); rep >= 0 {
				sc.members[pos[rep]] = int32(i)
				pos[rep]++
			}
		}
	}
	return sc, nil
}

// ExactScenarios enumerates every up/down configuration of g's sites and
// links once — the exhaustive approach of the paper's reference [7] — and
// keeps each distinct component (set of sites) once, weighted by the total
// probability of the configurations it occurs in. Configurations are walked
// in Gray-code order, so each step flips one site or link. Perfect links
// (r = 1) are not enumerated: every configuration with a link down has
// probability 0, and the walk's first 2^n steps, which flip only sites, are
// exactly the others, so stopping there leaves every weight bit-identical.
// A topology whose enumerated parts, n + (m if r < 1), exceed
// dist.ExactLimit is refused.
func ExactScenarios(g *graph.Graph, p, r float64) (*Scenarios, error) {
	if err := checkReliabilities(p, r); err != nil {
		return nil, err
	}
	n, m := g.N(), g.M()
	if r == 1 {
		m = 0
	}
	if n+m > dist.ExactLimit {
		return nil, fmt.Errorf("votes: exact enumeration needs n+m ≤ %d, got %d", dist.ExactLimit, n+m)
	}
	siteP, linkP := upProb(p, n), upProb(r, m)
	st := graph.NewState(g, nil)
	sc := &Scenarios{n: n, weight: []float64{}}
	index := map[uint32]int{} // component, as a site bitmask → its index
	mask := make([]uint32, n) // per representative, this configuration's component
	upSites, upLinks := n, m
	for step := 0; step < 1<<(n+m); step++ {
		if step > 0 {
			switch b := bits.TrailingZeros(uint(step)); {
			case b < n && st.SiteUp(b):
				st.FailSite(b)
				upSites--
			case b < n:
				st.RepairSite(b)
				upSites++
			case st.LinkUp(b - n):
				st.FailLink(b - n)
				upLinks--
			default:
				st.RepairLink(b - n)
				upLinks++
			}
		}
		prob := siteP[upSites] * linkP[upLinks]
		if prob == 0 {
			continue
		}
		sc.down += prob * float64(n-upSites)
		clear(mask)
		for i := 0; i < n; i++ {
			if rep := st.ComponentOf(i); rep >= 0 {
				mask[rep] |= 1 << i
			}
		}
		for _, k := range mask {
			if k == 0 {
				continue
			}
			c, ok := index[k]
			if !ok {
				c = len(sc.weight)
				index[k] = c
				for rest := k; rest != 0; rest &= rest - 1 {
					sc.members = append(sc.members, int32(bits.TrailingZeros32(rest)))
				}
				sc.compEnd = append(sc.compEnd, int32(len(sc.members)))
				sc.weight = append(sc.weight, 0)
			}
			sc.weight[c] += prob
		}
	}
	// Uniform access weights: each site observation carries 1/n.
	for c := range sc.weight {
		sc.weight[c] /= float64(n)
	}
	sc.down /= float64(n)
	return sc, nil
}

// upProb returns, for k = 0..c, the probability x^k·(1−x)^(c−k) of one
// configuration of c independent parts with exactly k of them up.
func upProb(x float64, c int) []float64 {
	out := make([]float64, c+1)
	for k := range out {
		out[k] = math.Pow(x, float64(k)) * math.Pow(1-x, float64(c-k))
	}
	return out
}

func checkReliabilities(p, r float64) error {
	if !(p >= 0 && p <= 1 && r >= 0 && r <= 1) { // also refuses NaN
		return fmt.Errorf("votes: reliabilities (%g, %g) out of [0,1]", p, r)
	}
	return nil
}

// density computes the aggregate density r(v) = w(v) of the paper's step 2
// (uniform access weights) for weight vector v: the probability that a
// uniformly chosen site observes component vote total v (down sites
// observe 0, the paper's zero convention). The result has length T+1,
// T = Σ v, and reuses buf's storage when it is large enough.
func (sc *Scenarios) density(v quorum.VoteAssignment, buf dist.PMF) (dist.PMF, error) {
	if len(v) != sc.n {
		return nil, fmt.Errorf("votes: %d weights for %d sites", len(v), sc.n)
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	T := v.Total()
	if cap(buf) < T+1 {
		buf = make(dist.PMF, T+1)
	}
	pmf := buf[:T+1]
	clear(pmf)
	pmf[0] = sc.down
	mi := int32(0)
	w := 1.0
	for c, end := range sc.compEnd {
		sum := 0
		for _, site := range sc.members[mi:end] {
			sum += v[site]
		}
		if sc.weight != nil {
			w = sc.weight[c]
		}
		pmf[sum] += w * float64(end-mi)
		mi = end
	}
	if sc.weight == nil {
		// A sample's counts are exact in float64; normalize them once.
		total := float64(sc.count * sc.n)
		for i := range pmf {
			pmf[i] /= total
		}
	}
	return pmf, nil
}

// Availability evaluates any quorum system against the scenarios: the
// probability that an access submitted at a uniformly chosen site is
// granted, reads (with probability α) where the site's component holds a
// read quorum and writes where it holds a write quorum, summed per
// component as weight·|c|·(α·[Read holds] + (1−α)·[Write holds]). Down
// sites are granted nothing. It is the set-valued form of density's vote
// count, so a coterie and a vote threshold are priced on one table.
func (sc *Scenarios) Availability(s quorum.System, alpha float64) (float64, error) {
	if !(alpha >= 0 && alpha <= 1) {
		return 0, fmt.Errorf("votes: α=%g out of [0,1]", alpha)
	}
	if sc.n > 64 {
		return 0, fmt.Errorf("votes: %d sites do not fit a quorum.Group", sc.n)
	}
	if err := s.Validate(); err != nil {
		return 0, err
	}
	sum, mi, w := 0.0, int32(0), 1.0
	for c, end := range sc.compEnd {
		var comp quorum.Group
		for _, site := range sc.members[mi:end] {
			comp |= 1 << site
		}
		grant := 0.0
		if s.Read.Holds(comp) {
			grant += alpha
		}
		if s.Write.Holds(comp) {
			grant += 1 - alpha
		}
		if sc.weight != nil {
			w = sc.weight[c]
		}
		sum += w * float64(end-mi) * grant
		mi = end
	}
	if sc.weight == nil {
		sum /= float64(sc.count * sc.n)
	}
	return sum, nil
}

// AvailObjective scores weight vectors by the paper's ACC availability under
// the optimal quorum pair for that vector: the scenarios' aggregate density
// r(v) = w(v), the O(T) availability-curve kernel producing the whole
// A(α, q_r) family in one pass, and the smallest-q_r argmax — the same
// objective, tie rule included, as Model.Optimize. Over ExactScenarios it
// is exact; over SampleScenarios it is evaluated on frozen common random
// numbers. Not safe for concurrent use (the buffers are reused across Eval
// calls).
type AvailObjective struct {
	Scen  *Scenarios
	Alpha float64

	pmf   dist.PMF
	curve []float64
}

// NewAvailObjective builds the availability objective for one α.
func NewAvailObjective(sc *Scenarios, alpha float64) (*AvailObjective, error) {
	if !(alpha >= 0 && alpha <= 1) {
		return nil, fmt.Errorf("votes: α=%g out of [0,1]", alpha)
	}
	return &AvailObjective{Scen: sc, Alpha: alpha}, nil
}

// Name implements Objective.
func (o *AvailObjective) Name() string {
	if o.Scen.weight != nil {
		return "avail-exact"
	}
	return "avail"
}

// Eval implements Objective. O(C·n + T), allocation-free once warm.
func (o *AvailObjective) Eval(v quorum.VoteAssignment) (ObjValue, error) {
	pmf, err := o.Scen.density(v, o.pmf)
	if err != nil {
		return ObjValue{}, err
	}
	o.pmf = pmf
	o.curve = core.AvailabilityCurveInto(o.Alpha, pmf, pmf, o.curve)
	qr, a := core.OptimizeCurve(o.curve)
	T := len(pmf) - 1
	return ObjValue{
		Value:      a,
		Assignment: quorum.Assignment{QR: qr, QW: T - qr + 1},
	}, nil
}
