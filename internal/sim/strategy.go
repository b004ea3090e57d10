package sim

import (
	"fmt"

	"quorumkit/internal/graph"
	"quorumkit/internal/obs"
	"quorumkit/internal/rng"
	"quorumkit/internal/stats"
	"quorumkit/internal/strategy"
)

// StrategyPolicy judges accesses against a randomized quorum strategy:
// each access samples a read or write quorum from the strategy's
// distribution and is granted iff every member of the sampled quorum lies
// in the submitting site's network component. Quorum sampling draws from a
// dedicated RNG substream, never the simulator's event source, so attaching
// a strategy leaves the failure/repair/access trajectory bit-identical to a
// protocol run over the same seed — and sampling stays deterministic for a
// given (strategy, seed) pair no matter what the network does.
type StrategyPolicy struct {
	strat   strategy.Strategy
	sampler *strategy.Sampler
	src     *rng.Source

	// Per-site service tallies: how many read (write) quorum memberships
	// each site served across granted accesses. These are the raw material
	// of the empirical load measurement.
	reads, writes []int64
	granted       int64
}

// NewStrategyPolicy compiles a strategy for simulation over n sites. The
// seed starts the policy's private sampling substream.
func NewStrategyPolicy(st strategy.Strategy, n int, seed uint64) (*StrategyPolicy, error) {
	for _, pool := range [][]strategy.Quorum{st.ReadQuorums, st.WriteQuorums} {
		if len(pool) == 0 {
			return nil, fmt.Errorf("sim: strategy has an empty quorum pool")
		}
		for _, q := range pool {
			for _, x := range q {
				if x < 0 || x >= n {
					return nil, fmt.Errorf("sim: strategy quorum %v out of range for %d sites", q, n)
				}
			}
		}
	}
	return &StrategyPolicy{
		strat:   st,
		sampler: strategy.NewSampler(st),
		src:     rng.New(seed),
		reads:   make([]int64, n),
		writes:  make([]int64, n),
	}, nil
}

// Reseed rewinds the sampling substream and zeroes the service tallies.
func (sp *StrategyPolicy) Reseed(seed uint64) {
	sp.src.Reseed(seed)
	for i := range sp.reads {
		sp.reads[i] = 0
	}
	for i := range sp.writes {
		sp.writes[i] = 0
	}
	sp.granted = 0
}

// judge samples the access's quorum and resolves it against the current
// network state. Service tallies count only granted accesses — a denied
// access performs probes but serves no work.
func (sp *StrategyPolicy) judge(st *graph.State, site int, read bool) (granted bool, probes int) {
	var q strategy.Quorum
	if read {
		q = sp.sampler.SampleRead(sp.src)
	} else {
		q = sp.sampler.SampleWrite(sp.src)
	}
	granted = true
	for _, x := range q {
		if !st.SameComponent(site, x) {
			granted = false
			break
		}
	}
	if granted {
		sp.granted++
		tally := sp.reads
		if !read {
			tally = sp.writes
		}
		for _, x := range q {
			tally[x]++
		}
	}
	return granted, len(q)
}

// SetStrategyPolicy attaches a strategy policy and read fraction α: every
// access samples a quorum from sp and is granted iff the quorum is fully
// inside the submitter's component. Clears any protocol or family tally;
// like those attachments, it is cleared by Reset and must be re-attached
// per batch. Enables access event generation.
func (s *Simulator) SetStrategyPolicy(sp *StrategyPolicy, alpha float64) {
	if alpha < 0 || alpha > 1 {
		panic(fmt.Sprintf("sim: α=%g out of [0,1]", alpha))
	}
	if len(sp.reads) != s.st.Graph().N() {
		panic(fmt.Sprintf("sim: strategy policy sized for %d sites, graph has %d",
			len(sp.reads), s.st.Graph().N()))
	}
	s.strat = sp
	s.protocol = nil
	s.tally = nil
	s.alpha = alpha
	s.ensureAccessEvents()
}

// stratAccess handles one access event under the attached strategy policy.
// The read/write draw comes from the simulator's event source — the same
// draw, in the same order, as the protocol and tally paths — so the event
// trajectory is shared; only the quorum draw uses the policy's substream.
func (s *Simulator) stratAccess(site int) {
	read := s.src.Bernoulli(s.alpha)
	granted, probes := s.strat.judge(s.st, site, read)
	s.pendStratProbe += int64(probes)
	switch {
	case granted && read:
		s.counters.ReadsGranted++
		s.pendGrant++
		s.pendStratRead++
	case granted:
		s.counters.WritesGranted++
		s.pendGrant++
		s.pendStratWrite++
	case read:
		s.counters.ReadsDenied++
		s.pendDeny++
		s.pendStratDeny++
	default:
		s.counters.WritesDenied++
		s.pendDeny++
		s.pendStratDeny++
	}
}

// flushStratObs pushes the batched strategy counters into the registry.
func (s *Simulator) flushStratObs() {
	if s.obs != nil {
		if s.pendStratRead != 0 {
			s.obs.Add(obs.CStrategyRead, s.pendStratRead)
		}
		if s.pendStratWrite != 0 {
			s.obs.Add(obs.CStrategyWrite, s.pendStratWrite)
		}
		if s.pendStratDeny != 0 {
			s.obs.Add(obs.CStrategyDeny, s.pendStratDeny)
		}
		if s.pendStratProbe != 0 {
			s.obs.Add(obs.CStrategyProbe, s.pendStratProbe)
		}
	}
	s.pendStratRead, s.pendStratWrite, s.pendStratDeny, s.pendStratProbe = 0, 0, 0, 0
}

// StrategyMeasurement is the outcome of a strategy load measurement: the
// direct empirical counterpart of the LP's predictions.
type StrategyMeasurement struct {
	// Overall is the availability (fraction of accesses granted).
	Overall stats.Interval
	// MaxLoad is the empirical bottleneck load per submitted access: the
	// maximum over sites of (reads served)/(accesses·rcap) +
	// (writes served)/(accesses·wcap). Its reciprocal bounds throughput.
	MaxLoad stats.Interval
	// Capacity is the per-batch reciprocal of MaxLoad.
	Capacity stats.Interval
	// PerSite is the across-batch mean empirical load of every site.
	PerSite []float64
	Batches int
}

// MeasureStrategyLoad measures a strategy's availability and per-site load
// empirically, with the batching methodology of MeasureAvailability: warm
// up, measure fixed-size batches from fresh network states, stop on CI
// convergence. At failure rates near zero the measured loads converge to
// the LP's SiteLoads prediction and the capacity to the LP capacity — the
// agreement the BENCH_strategy gate enforces.
func MeasureStrategyLoad(g *graph.Graph, sys strategy.System, p Params, st strategy.Strategy,
	alpha float64, cfg StudyConfig) (StrategyMeasurement, error) {
	if err := cfg.validate(); err != nil {
		return StrategyMeasurement{}, err
	}
	if g.N() != sys.N() {
		return StrategyMeasurement{}, fmt.Errorf("sim: %d-site graph for %d-site system", g.N(), sys.N())
	}
	if err := sys.Validate(); err != nil {
		return StrategyMeasurement{}, err
	}
	if err := st.Validate(sys); err != nil {
		return StrategyMeasurement{}, err
	}
	sp, err := NewStrategyPolicy(st, g.N(), 0)
	if err != nil {
		return StrategyMeasurement{}, err
	}
	var acc batchAccumulator
	var ml, capc stats.BatchMeans
	perSite := make([]float64, g.N())
	s := New(g, sys.Votes, p, cfg.Seed)
	if cfg.Obs != nil {
		s.AttachObs(cfg.Obs)
	}
	for b := 0; b < cfg.MaxBatches && !acc.done; b++ {
		if b > 0 {
			s.Reset(cfg.Seed + uint64(b))
		}
		// The sampling substream is keyed off the batch seed in a distinct
		// lane, so batch b's quorum draws are one deterministic function of
		// (strategy, seed, b) — independent of warm-up length or topology.
		sp.Reseed(rng.SubSeed(cfg.Seed+uint64(b), 0x57a7))
		s.SetStrategyPolicy(sp, alpha)
		s.RunAccesses(cfg.Warmup)
		s.ResetCounters()
		sp.Reseed(rng.SubSeed(cfg.Seed+uint64(b), 0x57a8))
		s.RunAccesses(cfg.BatchAccesses)
		n := float64(cfg.BatchAccesses)
		worst := 0.0
		for x := 0; x < g.N(); x++ {
			load := float64(sp.reads[x])/(n*sys.ReadCap[x]) + float64(sp.writes[x])/(n*sys.WriteCap[x])
			perSite[x] += load
			if load > worst {
				worst = load
			}
		}
		ml.AddBatch(worst)
		if worst > 0 {
			capc.AddBatch(1 / worst)
		}
		acc.add(s.Counters(), alpha, cfg)
	}
	for x := range perSite {
		perSite[x] /= float64(acc.batches)
	}
	return StrategyMeasurement{
		Overall:  acc.all.Interval95(),
		MaxLoad:  ml.Interval95(),
		Capacity: capc.Interval95(),
		PerSite:  perSite,
		Batches:  acc.batches,
	}, nil
}
