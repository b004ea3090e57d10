// Package coterie implements general read/write coterie systems — the
// strictly-more-general mechanism the paper points to through its
// references [7] and [8] (Garcia-Molina & Barbara; Cheung, Ahamad &
// Ammar). A vote/quorum pair induces a coterie system, but some coterie
// systems (the grid protocol below, for example) are not induced by any
// vote assignment, and they can dominate voting.
//
// A system here is a quorum.System — a read and a write quorum.Expr — and
// this package only builds the classic families as expressions and
// evaluates them. Availability is evaluated exactly on small topologies by
// enumerating failure configurations: an access at site i is granted when
// i's component satisfies the relevant expression (Expr.Holds). This is
// the set-valued generalization of the paper's vote-count criterion, and
// it reduces to the paper's model under vote-induced systems (verified in
// the tests).
package coterie

import (
	"fmt"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

// FromQuorums returns the system induced by a vote assignment and a
// (q_r, q_w) pair: read quorums are the sets holding q_r votes, write
// quorums the sets holding q_w votes. Nothing is enumerated, so any number
// of sites is accepted.
func FromQuorums(votes quorum.VoteAssignment, a quorum.Assignment) (quorum.System, error) {
	if err := votes.Validate(); err != nil {
		return quorum.System{}, err
	}
	if err := a.Validate(votes.Total()); err != nil {
		return quorum.System{}, err
	}
	return quorum.System{Read: quorum.Threshold(votes, a.QR), Write: quorum.Threshold(votes, a.QW)}, nil
}

// Grid returns the grid protocol system for rows×cols sites laid out in
// row-major order (site r·cols+c): a read quorum is one site from every
// column; a write quorum is a full column plus one site from every other
// column. The system is valid but not induced by any vote assignment for
// grids of at least 3×3.
func Grid(rows, cols int) (quorum.System, error) {
	if rows < 1 || cols < 1 || rows*cols > 16 {
		// 16 keeps the exact evaluator and Validate's pairwise check (at
		// most 2·8·2⁷ sets, for 2×8) tractable.
		return quorum.System{}, fmt.Errorf("coterie: grid %dx%d unsupported (need ≤ 16 sites)", rows, cols)
	}
	anyOf, allOf := make([]quorum.Expr, cols), make([]quorum.Expr, cols)
	for c := range anyOf {
		column := make([]quorum.Expr, rows)
		for r := range column {
			column[r] = quorum.Site(r*cols + c)
		}
		anyOf[c], allOf[c] = quorum.Or(column...), quorum.And(column...)
	}
	cover := quorum.And(anyOf...)
	s := quorum.System{Read: cover, Write: quorum.And(quorum.Or(allOf...), cover)}
	if err := s.Validate(); err != nil {
		return quorum.System{}, err
	}
	return s, nil
}

// ComponentDist is the exact distribution, for every site, over the site
// set of the component containing it (the set-valued refinement of the
// paper's f_i(v)). Computing it once lets many coterie systems be
// evaluated against the same topology cheaply.
type ComponentDist struct {
	n   int
	per []map[quorum.Group]float64 // per[i][S] = P[component of i = S]; S=0 means down
}

// Components enumerates all up/down configurations of g (site reliability
// p, link reliability r) and returns the exact component-set distribution.
// Requires n ≤ 16 and n+m ≤ 24.
func Components(g *graph.Graph, p, r float64) (*ComponentDist, error) {
	n, m := g.N(), g.M()
	if p < 0 || p > 1 || r < 0 || r > 1 {
		return nil, fmt.Errorf("coterie: reliabilities out of range")
	}
	linkBits := m
	if r == 1 {
		// Perfect links never fail; enumerating their states is pointless.
		linkBits = 0
	}
	if n > 16 || n+linkBits > 24 {
		return nil, fmt.Errorf("coterie: exact evaluation needs n ≤ 16 and n+m ≤ 24, got %d/%d", n, n+linkBits)
	}
	st := graph.NewState(g, nil)
	d := &ComponentDist{n: n, per: make([]map[quorum.Group]float64, n)}
	for i := range d.per {
		d.per[i] = map[quorum.Group]float64{}
	}
	total := 1 << uint(n+linkBits)
	members := make([]int, 0, n)
	for mask := 0; mask < total; mask++ {
		prob := 1.0
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				prob *= p
				st.RepairSite(i)
			} else {
				prob *= 1 - p
				st.FailSite(i)
			}
		}
		for l := 0; l < linkBits; l++ {
			if mask&(1<<uint(n+l)) != 0 {
				prob *= r
				st.RepairLink(l)
			} else {
				prob *= 1 - r
				st.FailLink(l)
			}
		}
		if prob == 0 {
			continue
		}
		var reps []int
		reps = st.Representatives(reps)
		for _, rep := range reps {
			members = st.Members(rep, members[:0])
			comp := quorum.NewGroup(members...)
			for _, site := range members {
				d.per[site][comp] += prob
			}
		}
	}
	return d, nil
}

// SiteAvailability returns, for each site, the probability that an access
// submitted there is granted under the system (reads with probability
// alpha, writes otherwise). Down sites deny everything.
func (d *ComponentDist) SiteAvailability(s quorum.System, alpha float64) ([]float64, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("coterie: α=%g out of [0,1]", alpha)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	out := make([]float64, d.n)
	for i, dist := range d.per {
		for comp, prob := range dist {
			grant := 0.0
			if s.Read.Holds(comp) {
				grant += alpha
			}
			if s.Write.Holds(comp) {
				grant += 1 - alpha
			}
			out[i] += prob * grant
		}
	}
	return out, nil
}

// Availability returns the uniform-access ACC availability of the system.
func (d *ComponentDist) Availability(s quorum.System, alpha float64) (float64, error) {
	per, err := d.SiteAvailability(s, alpha)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, a := range per {
		sum += a
	}
	return sum / float64(d.n), nil
}

// Availability computes the exact ACC availability of a coterie system on
// a topology in one call; use Components directly to evaluate several
// systems against one topology.
func Availability(g *graph.Graph, p, r float64, s quorum.System, alpha float64) (float64, error) {
	d, err := Components(g, p, r)
	if err != nil {
		return 0, err
	}
	return d.Availability(s, alpha)
}

// VoteInducible reports whether the system's write coterie can be realized
// by some vote assignment with per-site votes in [0, maxVotes] and a write
// quorum — a brute-force check used to certify that a coterie (like the
// grid) genuinely escapes the voting framework.
func VoteInducible(s quorum.System, n, maxVotes int) bool {
	if n > 9 {
		panic(fmt.Sprintf("coterie: VoteInducible supports ≤ 9 sites, got %d", n))
	}
	sets, _ := s.Write.MinimalQuorums(0)
	votes := make(quorum.VoteAssignment, n)
	var try func(i int) bool
	try = func(i int) bool {
		if i == n {
			total := votes.Total()
		thresholds:
			for q := total/2 + 1; q <= total; q++ {
				// Every target quorum must be a minimal quorum at q: meet
				// q, and fall below it without its lightest member.
				for _, set := range sets {
					sum, minV := 0, 1<<30
					for _, site := range set {
						sum += votes[site]
						minV = min(minV, votes[site])
					}
					if sum < q || sum-minV >= q {
						continue thresholds
					}
				}
				// The target is then part of the induced coterie, and equal
				// to it iff the induced one has no further member.
				if induced, _ := quorum.Threshold(votes, q).MinimalQuorums(len(sets) + 1); len(induced) == len(sets) {
					return true
				}
			}
			return false
		}
		for v := 0; v <= maxVotes; v++ {
			votes[i] = v
			if try(i + 1) {
				return true
			}
		}
		votes[i] = 0
		return false
	}
	return try(0)
}
