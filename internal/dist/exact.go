package dist

import (
	"fmt"

	"quorumkit/internal/graph"
)

// This file computes f_i(v) exactly for arbitrary small topologies by
// exhaustive enumeration of failure configurations. The paper proves the
// general problem #P-complete (via the expected component size), so no
// polynomial algorithm is expected; enumeration over 2^(n+m) configurations
// is nevertheless practical for the sizes used to validate the closed forms
// and the simulator (n+m up to ~22).

// ExactLimit bounds the enumeration size for Exact (n + m bits).
const ExactLimit = 24

// Exact returns the exact per-site component-size densities f_i(v) for a
// topology with per-site votes (nil for uniform), site reliability p and
// link reliability r, by enumerating every up/down configuration. It panics
// when n+m exceeds ExactLimit.
func Exact(g *graph.Graph, votes []int, p, r float64) []PMF {
	checkProb("p", p)
	checkProb("r", r)
	n, m := g.N(), g.M()
	if n+m > ExactLimit {
		panic(fmt.Sprintf("dist: Exact needs n+m ≤ %d, got %d", ExactLimit, n+m))
	}
	st := graph.NewState(g, votes)
	T := st.TotalVotes()
	out := make([]PMF, n)
	for i := range out {
		out[i] = make(PMF, T+1)
	}

	// Precompute log-free probability factors for each bit.
	siteProb := func(up bool) float64 {
		if up {
			return p
		}
		return 1 - p
	}
	linkProb := func(up bool) float64 {
		if up {
			return r
		}
		return 1 - r
	}

	total := 1 << uint(n+m)
	for mask := 0; mask < total; mask++ {
		prob := 1.0
		for i := 0; i < n; i++ {
			up := mask&(1<<uint(i)) != 0
			prob *= siteProb(up)
			if up {
				st.RepairSite(i)
			} else {
				st.FailSite(i)
			}
		}
		for l := 0; l < m; l++ {
			up := mask&(1<<uint(n+l)) != 0
			prob *= linkProb(up)
			if up {
				st.RepairLink(l)
			} else {
				st.FailLink(l)
			}
		}
		if prob == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			out[i][st.VotesAt(i)] += prob
		}
	}
	return out
}
