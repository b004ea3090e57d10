// Package votes addresses the companion problem the paper delegates to its
// reference [7] (Cheung, Ahamad & Ammar): choosing the *vote assignment*
// jointly with the quorum assignment. The paper's own study fixes one vote
// per copy because its topologies are symmetric; on asymmetric topologies
// (stars, paths, hub-and-spoke networks) weighted votes can dominate.
//
// Availability of a candidate vote assignment is evaluated exactly by
// enumerating failure configurations (dist.Exact) and running the paper's
// Figure-1 optimization for the best quorum pair, so the search optimizes
// the same ACC objective as the rest of the library. Exhaustive search over
// vote vectors reproduces [7]'s approach for tiny systems; a hill-climbing
// local search handles slightly larger ones.
package votes

import (
	"fmt"

	"quorumkit/internal/core"
	"quorumkit/internal/dist"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

// Config parameterizes the evaluation and search.
type Config struct {
	P     float64 // site reliability
	R     float64 // link reliability
	Alpha float64 // fraction of accesses that are reads

	// MaxVotesPerSite bounds each site's votes during search (≥ 1).
	MaxVotesPerSite int
	// TotalBudget bounds the vote total during search; 0 means n·Max.
	TotalBudget int
}

func (c Config) validate() error {
	if c.P < 0 || c.P > 1 || c.R < 0 || c.R > 1 {
		return fmt.Errorf("votes: reliabilities (%g, %g) out of [0,1]", c.P, c.R)
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("votes: α=%g out of [0,1]", c.Alpha)
	}
	if c.MaxVotesPerSite < 1 {
		return fmt.Errorf("votes: MaxVotesPerSite=%d", c.MaxVotesPerSite)
	}
	if c.TotalBudget < 0 {
		return fmt.Errorf("votes: TotalBudget=%d", c.TotalBudget)
	}
	return nil
}

// Evaluation is the outcome of evaluating one vote assignment: the optimal
// quorum pair for it and the availability achieved.
type Evaluation struct {
	Votes        quorum.VoteAssignment
	Assignment   quorum.Assignment
	Availability float64
	// Evaluations is the number of objective evaluations a search spent to
	// reach this result (zero for single-candidate evaluations).
	Evaluations int
}

// Evaluate computes the exact availability of a vote assignment under its
// optimal quorum pair. The topology must satisfy dist.Exact's size limit.
func Evaluate(g *graph.Graph, v quorum.VoteAssignment, cfg Config) (Evaluation, error) {
	if err := cfg.validate(); err != nil {
		return Evaluation{}, err
	}
	if len(v) != g.N() {
		return Evaluation{}, fmt.Errorf("votes: %d votes for %d sites", len(v), g.N())
	}
	if err := v.Validate(); err != nil {
		return Evaluation{}, err
	}
	fs := dist.Exact(g, v, cfg.P, cfg.R)
	pmfs := make([]dist.PMF, len(fs))
	copy(pmfs, fs)
	m, err := core.NewModel(nil, nil, pmfs)
	if err != nil {
		return Evaluation{}, err
	}
	res := m.Optimize(cfg.Alpha)
	return Evaluation{
		Votes:        append(quorum.VoteAssignment(nil), v...),
		Assignment:   res.Assignment,
		Availability: res.Availability,
	}, nil
}

// Uniform returns the one-vote-per-site evaluation (the paper's baseline).
func Uniform(g *graph.Graph, cfg Config) (Evaluation, error) {
	return Evaluate(g, quorum.UniformVotes(g.N()), cfg)
}

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

// HillClimb searches vote assignments by local moves from the uniform
// start: repeatedly try adding or removing one vote at one site, keeping
// strict improvements, until a local optimum. Deterministic: sites are
// scanned in order and the best single move is taken each round. The climb
// is memoized — no vector is evaluated twice, and in particular the
// incumbent is never re-scored when a round revisits it — and the number of
// objective evaluations actually spent is reported in Evaluations.
func HillClimb(g *graph.Graph, cfg Config) (Evaluation, error) {
	if err := cfg.validate(); err != nil {
		return Evaluation{}, err
	}
	n := g.N()
	return searchEvaluation(HillClimbObjective(n, ExactObjective{G: g, Cfg: cfg}, quorum.UniformVotes(n), cfg.search()))
}

// Exhaustive enumerates every vote vector with entries in [0, Max] and
// total in [1, budget], returning the best. Exponential (Max+1)^n — use
// only for tiny systems, as in the literature this reproduces.
func Exhaustive(g *graph.Graph, cfg Config) (Evaluation, error) {
	if err := cfg.validate(); err != nil {
		return Evaluation{}, err
	}
	return searchEvaluation(ExhaustiveObjective(g.N(), ExactObjective{G: g, Cfg: cfg}, cfg.search()))
}

// search is the exact engines' SearchConfig: the two bounds, nothing random.
func (c Config) search() SearchConfig {
	return SearchConfig{MaxVotesPerSite: c.MaxVotesPerSite, TotalBudget: c.TotalBudget}
}

// searchEvaluation reports an objective-generic search result in the seed
// engine's Evaluation shape.
func searchEvaluation(res SearchResult, err error) (Evaluation, error) {
	if err != nil {
		return Evaluation{}, err
	}
	return Evaluation{
		Votes:        res.Votes,
		Assignment:   res.Assignment,
		Availability: res.Value,
		Evaluations:  res.Evaluations,
	}, nil
}
