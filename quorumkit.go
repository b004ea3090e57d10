package quorumkit

import (
	"quorumkit/internal/cluster"
	"quorumkit/internal/core"
	"quorumkit/internal/coterie"
	"quorumkit/internal/db"
	"quorumkit/internal/dist"
	"quorumkit/internal/graph"
	"quorumkit/internal/history"
	"quorumkit/internal/quorum"
	"quorumkit/internal/replica"
	"quorumkit/internal/sim"
	"quorumkit/internal/topo"
	"quorumkit/internal/workload"
)

// Re-exported core types. The aliases expose the full method sets of the
// internal implementations as the library's public API.
type (
	// Assignment is a read/write quorum pair (q_r, q_w).
	Assignment = quorum.Assignment
	// VoteAssignment maps sites to vote counts.
	VoteAssignment = quorum.VoteAssignment
	// QuorumExpr is a quorum system written as a monotone expression over
	// sites (site, k-of, vote threshold); a coterie is one such expression.
	QuorumExpr = quorum.Expr
	// PMF is a probability mass function over component vote counts.
	PMF = dist.PMF
	// Model is the availability model of the paper's Figure 1.
	Model = core.Model
	// Result is the outcome of a quorum optimization.
	Result = core.Result
	// Estimator approximates per-site component-size densities on-line.
	Estimator = core.Estimator
	// Graph is an immutable network of sites and links.
	Graph = graph.Graph
	// NetworkState tracks live sites/links and connected components.
	NetworkState = graph.State
	// SimParams are the stochastic parameters of the simulator.
	SimParams = sim.Params
	// Simulator is the discrete-event partition simulator.
	Simulator = sim.Simulator
	// Object is a replicated data object under quorum consensus with
	// dynamic quorum reassignment.
	Object = replica.Object
	// Manager drives dynamic quorum reassignment from on-line estimates.
	Manager = replica.Manager
	// Database is a collection of replicated objects over one network.
	Database = db.Database
	// Cluster is the deterministic message-level protocol runtime.
	Cluster = cluster.Cluster
	// AsyncCluster is the concurrent (goroutine-per-node) runtime.
	AsyncCluster = cluster.Async
	// CoterieSystem is a general read/write coterie pair: two QuorumExprs.
	CoterieSystem = quorum.System
	// HistoryLog records operations for one-copy serializability checking.
	HistoryLog = history.Log
	// WorkloadPattern maps time to the instantaneous read fraction α(t).
	WorkloadPattern = workload.Pattern
)

// Majority returns the majority consensus assignment for vote total T.
func Majority(T int) Assignment { return quorum.Majority(T) }

// ReadOneWriteAll returns the ROWA assignment (q_r=1, q_w=T).
func ReadOneWriteAll(T int) Assignment { return quorum.ReadOneWriteAll(T) }

// ForReadQuorum returns the paper's family member (q_r, T−q_r+1).
func ForReadQuorum(qr, T int) Assignment { return quorum.ForReadQuorum(qr, T) }

// RingDensity returns the closed-form component-size density f(v) for a
// ring of n sites with site reliability p and link reliability r (§4.2).
func RingDensity(n int, p, r float64) PMF { return dist.Ring(n, p, r) }

// CompleteDensity returns the closed-form density for a fully-connected
// network, using Gilbert's Rel(m, r) recursion (§4.2).
func CompleteDensity(n int, p, r float64) PMF { return dist.Complete(n, p, r) }

// BusDensity returns the single-bus density; killsSites selects the design
// in which no site functions while the bus is down (§4.2).
func BusDensity(n int, p, r float64, killsSites bool) PMF {
	if killsSites {
		return dist.BusKillsSites(n, p, r)
	}
	return dist.BusIndependentSites(n, p, r)
}

// RingHeteroDensities returns exact per-site densities for a ring with
// heterogeneous site reliabilities ps and link reliabilities rs
// (rs[i] is the link between sites i and i+1 mod n) — the generalization
// of the paper's closed form to asymmetric deployments.
func RingHeteroDensities(ps, rs []float64) []PMF { return dist.RingHetero(ps, rs) }

// ModelFromDensity builds an availability model for the symmetric case in
// which every site shares the density f and accesses are uniform.
func ModelFromDensity(f PMF) (Model, error) { return core.ModelFromSingleDensity(f) }

// NewModel builds an availability model from per-site densities and access
// weight vectors (nil for uniform) — step 2 of the paper's Figure 1.
func NewModel(rWeights, wWeights []float64, f []PMF) (Model, error) {
	return core.NewModel(rWeights, wWeights, f)
}

// NewEstimator creates an on-line density estimator for n sites and vote
// total T (§4.2).
func NewEstimator(n, T int) *Estimator { return core.NewEstimator(n, T) }

// Ring, Complete and PaperTopology construct study networks.
func Ring(n int) *Graph { return graph.Ring(n) }

// Complete returns the complete graph on n sites.
func Complete(n int) *Graph { return graph.Complete(n) }

// PaperTopology returns the paper's "Topology i": a 101-site ring with
// i ∈ {0,1,2,4,16,256,4949} chords.
func PaperTopology(chords int) *Graph { return topo.Paper(chords) }

// NewNetworkState returns an all-up network state over g; votes may be nil
// for one vote per site.
func NewNetworkState(g *Graph, votes []int) *NetworkState { return graph.NewState(g, votes) }

// PaperParams returns the paper's simulation parameters (μ_t = 1,
// ρ = 1/128, 96% component reliability).
func PaperParams() SimParams { return sim.PaperParams() }

// NewSimulator creates a discrete-event partition simulator.
func NewSimulator(g *Graph, votes []int, p SimParams, seed uint64) *Simulator {
	return sim.New(g, votes, p, seed)
}

// NewObject creates a replicated object over a network state with an
// initial quorum assignment (version 1).
func NewObject(st *NetworkState, initial Assignment) (*Object, error) {
	return replica.NewObject(st, initial)
}

// NewManager creates a dynamic quorum reassignment manager (§4.3) for the
// object, driven by the estimator and read fraction α.
func NewManager(obj *Object, est *Estimator, alpha float64) *Manager {
	return replica.NewManager(obj, est, alpha)
}

// NewDatabase creates a multi-object database over a network state.
func NewDatabase(st *NetworkState) *Database { return db.New(st) }

// NewCluster creates the deterministic message-level runtime.
func NewCluster(st *NetworkState, initial Assignment) (*Cluster, error) {
	return cluster.New(st, initial)
}

// NewAsyncCluster creates the concurrent runtime (one goroutine per node).
// Call Close when done.
func NewAsyncCluster(st *NetworkState, initial Assignment) (*AsyncCluster, error) {
	return cluster.NewAsync(st, initial)
}

// GridCoterie returns the grid protocol coterie system for rows×cols sites.
func GridCoterie(rows, cols int) (CoterieSystem, error) { return coterie.Grid(rows, cols) }

// CollectModel simulates the topology with the paper's parameters for
// approximately the given number of accesses (time-weighted estimation)
// and returns the fitted availability model. It is the one-call form of
// the paper's pipeline: simulate → estimate f_i on-line → Figure 1.
func CollectModel(g *Graph, accesses int64, seed uint64) (Model, error) {
	m, _, err := sim.Collect(g, nil, sim.PaperParams(), sim.CollectConfig{
		Mode:     sim.TimeWeighted,
		Accesses: accesses,
		Warmup:   accesses / 20,
		Seed:     seed,
	})
	return m, err
}
