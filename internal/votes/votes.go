// Package votes addresses the companion problem the paper delegates to its
// reference [7] (Cheung, Ahamad & Ammar): choosing the *vote assignment*
// jointly with the quorum assignment. The paper's own study fixes one vote
// per copy because its topologies are symmetric; on asymmetric topologies
// (stars, paths, hub-and-spoke networks) weighted votes can dominate.
//
// A candidate vote assignment is scored by one engine: the topology's
// failure configurations are reduced once to the components they induce
// (Scenarios), and each candidate only re-prices those components before
// the paper's Figure-1 optimization picks the best quorum pair, so the
// search optimizes the same ACC objective as the rest of the library.
// ExactScenarios enumerates every configuration, as [7] does, and is exact
// wherever n+m ≤ dist.ExactLimit; SampleScenarios freezes a Monte-Carlo
// sample beyond that. Exhaustive search over vote vectors reproduces [7]'s
// approach for tiny systems; hill climbing and simulated annealing handle
// larger ones.
package votes

import (
	"fmt"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

// DegreeHeuristic assigns each site votes proportional to 1 + its degree,
// scaled into [1, MaxVotesPerSite] — the standard structural heuristic:
// well-connected sites appear in more components and deserve more weight.
func DegreeHeuristic(g *graph.Graph, maxVotes int) quorum.VoteAssignment {
	if maxVotes < 1 {
		panic(fmt.Sprintf("votes: maxVotes=%d", maxVotes))
	}
	n := g.N()
	v := make(quorum.VoteAssignment, n)
	maxDeg := 0
	for i := 0; i < n; i++ {
		if d := g.Degree(i); d > maxDeg {
			maxDeg = d
		}
	}
	for i := 0; i < n; i++ {
		if maxDeg == 0 {
			v[i] = 1
			continue
		}
		v[i] = 1 + g.Degree(i)*(maxVotes-1)/maxDeg
	}
	return v
}
