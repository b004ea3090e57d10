package sim

import (
	"fmt"

	"quorumkit/internal/core"
	"quorumkit/internal/graph"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/stats"
)

// StudyConfig reproduces the batching methodology of §5.2: discard a
// warm-up prefix, run fixed-length batches from a fresh initial state, and
// stop when the 95% confidence interval is tight enough (between MinBatches
// and MaxBatches batches).
type StudyConfig struct {
	Warmup        int64   // accesses discarded before measurement begins
	BatchAccesses int64   // accesses measured per batch
	MinBatches    int     // lower bound on batches (paper: 5)
	MaxBatches    int     // upper bound on batches (paper: 18)
	CIHalfWidth   float64 // stop when the 95% CI half-width is ≤ this
	Seed          uint64  // base seed; batch b uses Seed+b

	// Obs, when non-nil, receives topology and access events from every
	// batch simulator. Attaching it never perturbs the simulation: the
	// registry draws no randomness and schedules nothing.
	Obs *obs.Registry
}

// PaperStudy returns the paper's full-size study configuration: 100,000
// warm-up accesses, batches of 1,000,000 accesses, 5–18 batches, CI target
// ±0.5%. Scale down BatchAccesses/Warmup for quick runs.
func PaperStudy() StudyConfig {
	return StudyConfig{
		Warmup:        100_000,
		BatchAccesses: 1_000_000,
		MinBatches:    5,
		MaxBatches:    18,
		CIHalfWidth:   0.005,
		Seed:          1,
	}
}

func (c StudyConfig) validate() error {
	if c.BatchAccesses <= 0 || c.Warmup < 0 {
		return fmt.Errorf("sim: bad batch sizes %+v", c)
	}
	if c.MinBatches < 1 || c.MaxBatches < c.MinBatches {
		return fmt.Errorf("sim: bad batch counts %+v", c)
	}
	return nil
}

// Measurement is the outcome of a direct availability measurement.
type Measurement struct {
	Overall stats.Interval // ACC over all accesses
	Read    stats.Interval // over read accesses only
	Write   stats.Interval // over write accesses only
	Batches int
}

// MeasureAvailability measures the ACC availability of a static quorum
// assignment directly, by counting grants and denials exactly as the
// paper's simulator does: every access drawn read with probability α,
// granted iff the submitting site's component meets the quorum (down sites
// are components of size zero and deny everything).
func MeasureAvailability(g *graph.Graph, votes []int, p Params, a quorum.Assignment,
	alpha float64, cfg StudyConfig) (Measurement, error) {
	if err := cfg.validate(); err != nil {
		return Measurement{}, err
	}
	// The paper resets the network to the initial (all-up) state before
	// each batch; one simulator Reset to the per-batch seed does exactly
	// that — bit-identical to a fresh construction, without reallocating
	// the network state, event heap, or RNG.
	s := New(g, votes, p, cfg.Seed)
	if err := a.Validate(s.State().TotalVotes()); err != nil {
		return Measurement{}, err
	}
	if cfg.Obs != nil {
		s.AttachObs(cfg.Obs)
	}
	var acc batchAccumulator
	for b := 0; b < cfg.MaxBatches && !acc.done; b++ {
		if b > 0 {
			s.Reset(cfg.Seed + uint64(b))
		}
		s.SetProtocol(StaticProtocol{Assignment: a}, alpha)
		s.RunAccesses(cfg.Warmup)
		s.ResetCounters()
		s.RunAccesses(cfg.BatchAccesses)
		acc.add(s.Counters(), alpha, cfg)
	}
	return acc.measurement(), nil
}

// batchAccumulator is the §5.2 batch-stopping rule, the one every batch
// runner (MeasureAvailability, MeasureStrategyLoad and, per assignment,
// Sweep) applies: record each batch's availabilities, and stop once at
// least MinBatches batches are in and the overall 95% CI half-width is
// within CIHalfWidth. The runners also stop at MaxBatches.
type batchAccumulator struct {
	all, rd, wr stats.BatchMeans
	batches     int
	done        bool
}

func (a *batchAccumulator) add(c Counters, alpha float64, cfg StudyConfig) {
	a.all.AddBatch(c.Availability())
	if alpha > 0 {
		a.rd.AddBatch(c.ReadAvailability())
	}
	if alpha < 1 {
		a.wr.AddBatch(c.WriteAvailability())
	}
	a.batches++
	if a.batches >= cfg.MinBatches && a.all.Converged(cfg.CIHalfWidth) {
		a.done = true
	}
}

func (a *batchAccumulator) measurement() Measurement {
	return Measurement{
		Overall: a.all.Interval95(),
		Read:    a.rd.Interval95(),
		Write:   a.wr.Interval95(),
		Batches: a.batches,
	}
}

// EstimationMode selects how the component-size densities are collected.
type EstimationMode int

const (
	// Sampled is the paper's on-line scheme: each access records its
	// component's vote total.
	Sampled EstimationMode = iota
	// TimeWeighted charges wall-clock occupancy between events (PASTA);
	// identical in expectation under Poisson accesses, far lower variance.
	TimeWeighted
)

// String implements fmt.Stringer.
func (m EstimationMode) String() string {
	switch m {
	case Sampled:
		return "sampled"
	case TimeWeighted:
		return "time-weighted"
	default:
		return fmt.Sprintf("EstimationMode(%d)", int(m))
	}
}

// CollectConfig configures density collection.
type CollectConfig struct {
	Mode     EstimationMode
	Accesses int64  // horizon expressed in expected access count
	Warmup   int64  // discarded prefix, same unit
	Seed     uint64 // simulation seed
}

// Collect runs one simulation and returns the estimated per-site densities
// wrapped in an optimizer Model, plus the raw estimator. This is the
// paper's full pipeline: simulate → approximate f_i on-line → feed Figure 1.
func Collect(g *graph.Graph, votes []int, p Params, cfg CollectConfig) (core.Model, *core.Estimator, error) {
	if cfg.Accesses <= 0 || cfg.Warmup < 0 {
		return core.Model{}, nil, fmt.Errorf("sim: bad collect horizon %+v", cfg)
	}
	s := New(g, votes, p, cfg.Seed)
	est := core.NewEstimator(g.N(), s.State().TotalVotes())
	switch cfg.Mode {
	case Sampled:
		if cfg.Warmup > 0 {
			s.RunAccesses(cfg.Warmup)
		}
		s.AttachEstimator(est)
		s.RunAccesses(cfg.Accesses)
	case TimeWeighted:
		// Convert the access horizon into simulated time using the total
		// access rate across sites.
		perUnit := p.totalAccessRate(g.N())
		warmT := float64(cfg.Warmup) / perUnit
		runT := float64(cfg.Accesses) / perUnit
		s.RunUntil(warmT)
		s.AttachTimeWeighted(est, nil)
		s.RunUntil(warmT + runT)
	default:
		return core.Model{}, nil, fmt.Errorf("sim: unknown estimation mode %v", cfg.Mode)
	}
	// With skewed access rates, site i receives the fraction w_i/Σw of all
	// requests, which is exactly the paper's r_i (= w_i here, reads and
	// writes sharing the submission distribution).
	weights := p.accessFractions(g.N())
	m, err := est.Model(weights, weights)
	if err != nil {
		return core.Model{}, nil, err
	}
	return m, est, nil
}

// totalAccessRate returns the aggregate access rate (accesses per time
// unit) over n sites.
func (p Params) totalAccessRate(n int) float64 {
	if p.AccessWeights == nil {
		return float64(n) / p.AccessMean
	}
	sum := 0.0
	for _, w := range p.AccessWeights {
		sum += w
	}
	return sum / p.AccessMean
}

// accessFractions returns the per-site access fractions r_i (nil for the
// uniform distribution).
func (p Params) accessFractions(n int) []float64 {
	if p.AccessWeights == nil {
		return nil
	}
	sum := 0.0
	for _, w := range p.AccessWeights {
		sum += w
	}
	out := make([]float64, n)
	for i, w := range p.AccessWeights {
		out[i] = w / sum
	}
	return out
}
