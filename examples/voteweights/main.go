// Vote-weight study: on asymmetric topologies the uniform one-vote-per-copy
// assignment the paper uses (justified by its symmetric topologies) is not
// optimal — concentrating votes at well-connected sites can buy real
// availability. This example optimizes vote assignments jointly with the
// quorum assignment on a star and a path, the companion problem of the
// paper's reference [7].
//
//	go run ./examples/voteweights
package main

import (
	"fmt"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/votes"
)

func main() {
	const p, r, alpha, maxVotes = 0.9, 0.7, 0.5, 3

	study := []struct {
		name string
		g    *graph.Graph
	}{
		{"star (hub + 5 leaves)", graph.Star(6)},
		{"path of 6", graph.Path(6)},
		{"ring of 6", graph.Ring(6)},
	}

	for _, s := range study {
		// Every failure configuration of the topology, enumerated once and
		// re-priced for each vote vector: exact availabilities.
		sc, err := votes.ExactScenarios(s.g, p, r)
		if err != nil {
			panic(err)
		}
		obj, err := votes.NewAvailObjective(sc, alpha)
		if err != nil {
			panic(err)
		}
		uniVotes := quorum.UniformVotes(s.g.N())
		uni, err := obj.Eval(uniVotes)
		if err != nil {
			panic(err)
		}
		degVotes := votes.DegreeHeuristic(s.g, maxVotes)
		deg, err := obj.Eval(degVotes)
		if err != nil {
			panic(err)
		}
		hc, err := votes.HillClimbObjective(s.g.N(), obj, uniVotes, votes.SearchConfig{MaxVotesPerSite: maxVotes})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s  (p=%.2f, r=%.2f, α=%.2f)\n", s.name, p, r, alpha)
		fmt.Printf("  uniform votes   %v  %v  A = %.4f\n", uniVotes, uni.Assignment, uni.Value)
		fmt.Printf("  degree heuristic%v  %v  A = %.4f\n", degVotes, deg.Assignment, deg.Value)
		fmt.Printf("  hill-climbed    %v  %v  A = %.4f  (+%.4f over uniform)\n\n",
			hc.Votes, hc.Assignment, hc.Value, hc.Value-uni.Value)
	}

	fmt.Println("On the symmetric ring the climb stays (essentially) uniform —")
	fmt.Println("matching the paper's choice of one vote per copy for its")
	fmt.Println("symmetric topologies. On the star, votes concentrate at the hub.")
}
