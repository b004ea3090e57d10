// Package sim is the steady-state discrete event simulator of the paper's
// §5.2: sites and links fail and recover as independent alternating Poisson
// processes, access requests arrive as per-site Poisson streams, all events
// are instantaneous, and the network partitions induced by failures decide
// which accesses the quorum consensus protocol can grant.
//
// The simulator supports the paper's estimation mode — each access records
// the vote total of the submitting site's component, approximating f_i(v)
// on-line — and a lower-variance time-weighted mode justified by PASTA
// (Poisson arrivals see time averages): component occupancy is accumulated
// by duration between events, so the same simulated horizon yields a much
// tighter estimate. Both feed the optimizer of internal/core.
package sim

import (
	"fmt"
	"math"

	"quorumkit/internal/core"
	"quorumkit/internal/graph"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
)

// Params are the stochastic parameters of the study (§5.2 defaults via
// PaperParams).
type Params struct {
	AccessMean float64 // mean time between accesses at each site (μ_t)
	FailMean   float64 // mean up-time of every site and link (μ_f)
	RepairMean float64 // mean down-time of every site and link (μ_r)

	// AccessWeights, when non-nil, skews the per-site access rates: site i
	// submits accesses with mean interarrival AccessMean/Weights[i]
	// (weights are relative rates; a weight of 0 silences a site). This
	// realizes the paper's non-uniform access distributions r_i, w_i —
	// with Poisson streams the fraction of accesses submitted at site i is
	// Weights[i]/ΣWeights.
	AccessWeights []float64

	// FailShape, when positive and ≠ 1, draws component up-times from a
	// Weibull distribution with this shape (mean still FailMean) instead
	// of the exponential. Stationary availability depends only on the
	// up/down means (renewal-theoretic insensitivity), so the paper's
	// availability results are robust to this assumption — a property the
	// tests verify empirically.
	FailShape float64

	// Shock, when non-nil, adds *correlated* regional failures on top of
	// the independent per-component processes: at Poisson times a
	// contiguous run of sites fails together and recovers together. The
	// paper's analytic models assume failure independence; shocks violate
	// that assumption, which is exactly the situation where its on-line
	// estimation (§4.2–4.3) beats any off-line model.
	Shock *ShockParams
}

// ShockParams describes the correlated-failure process.
type ShockParams struct {
	Mean     float64 // mean time between shocks (Poisson)
	Size     int     // number of consecutive sites taken down per shock
	Duration float64 // mean shock length (exponential)
}

func (s *ShockParams) validate() error {
	if s == nil {
		return nil
	}
	if s.Mean <= 0 || s.Size <= 0 || s.Duration <= 0 {
		return fmt.Errorf("sim: bad shock params %+v", *s)
	}
	return nil
}

// accessMeanAt returns the mean interarrival time of site i's accesses, or
// +Inf when the site never submits.
func (p Params) accessMeanAt(i int) float64 {
	if p.AccessWeights == nil {
		return p.AccessMean
	}
	w := p.AccessWeights[i]
	if w <= 0 {
		return 0 // sentinel: no accesses
	}
	return p.AccessMean / w
}

// PaperParams returns the paper's parameters: μ_t = 1, ρ = μ_t/μ_f = 1/128,
// and component reliability 0.96, hence μ_r = μ_f·(1−0.96)/0.96.
func PaperParams() Params {
	const (
		accessMean  = 1.0
		rho         = 1.0 / 128.0
		reliability = 0.96
	)
	failMean := accessMean / rho
	return Params{
		AccessMean: accessMean,
		FailMean:   failMean,
		RepairMean: failMean * (1 - reliability) / reliability,
	}
}

// Reliability returns the stationary probability that a component is up,
// μ_f/(μ_f+μ_r).
func (p Params) Reliability() float64 {
	return p.FailMean / (p.FailMean + p.RepairMean)
}

func (p Params) validate() error {
	if p.AccessMean <= 0 || p.FailMean <= 0 || p.RepairMean <= 0 {
		return fmt.Errorf("sim: all Params means must be positive, got %+v", p)
	}
	if p.FailShape < 0 {
		return fmt.Errorf("sim: negative FailShape %g", p.FailShape)
	}
	sum := 0.0
	for i, w := range p.AccessWeights {
		if !(w >= 0) || math.IsInf(w, 1) { // negative, NaN or ±Inf
			return fmt.Errorf("sim: access weight %g at site %d is not a finite non-negative rate", w, i)
		}
		sum += w
	}
	// With every site silent no access is ever scheduled: RunAccesses would
	// spin on failure events forever and the time-weighted horizon is 0/0.
	if p.AccessWeights != nil && (sum == 0 || math.IsInf(sum, 1)) {
		return fmt.Errorf("sim: access weights sum to %g over %d sites, want a finite positive total", sum, len(p.AccessWeights))
	}
	return nil
}

// Counters tallies granted and denied accesses when a protocol is attached.
type Counters struct {
	ReadsGranted  int64
	ReadsDenied   int64
	WritesGranted int64
	WritesDenied  int64
}

// Accesses returns the total number of counted accesses.
func (c Counters) Accesses() int64 {
	return c.ReadsGranted + c.ReadsDenied + c.WritesGranted + c.WritesDenied
}

// Availability returns the fraction of all accesses granted (the ACC
// metric measured directly).
func (c Counters) Availability() float64 {
	n := c.Accesses()
	if n == 0 {
		return 0
	}
	return float64(c.ReadsGranted+c.WritesGranted) / float64(n)
}

// ReadAvailability returns the fraction of read accesses granted.
func (c Counters) ReadAvailability() float64 {
	n := c.ReadsGranted + c.ReadsDenied
	if n == 0 {
		return 0
	}
	return float64(c.ReadsGranted) / float64(n)
}

// WriteAvailability returns the fraction of write accesses granted.
func (c Counters) WriteAvailability() float64 {
	n := c.WritesGranted + c.WritesDenied
	if n == 0 {
		return 0
	}
	return float64(c.WritesGranted) / float64(n)
}

// Protocol is what the simulator consults on each access when direct
// grant/deny measurement is enabled. The quorum consensus protocol is the
// static implementation; the replica package provides the dynamic
// quorum-reassignment implementation.
type Protocol interface {
	// GrantRead reports whether a read succeeds for the given component
	// vote total.
	GrantRead(votes int) bool
	// GrantWrite likewise for writes.
	GrantWrite(votes int) bool
}

// Simulator drives one replicated data object over a failing network.
type Simulator struct {
	st     *graph.State
	params Params
	src    *rng.Source

	now     float64
	heap    eventHeap
	genAcc  bool // whether access events are scheduled
	nAccess int64

	// genAccessWeighted marks time-weighted accumulation active: occupancy
	// is charged per inter-event interval instead of per access sample.
	genAccessWeighted bool

	est  *core.Estimator
	surv *core.SurvEstimator
	net  *NetStats
	last float64 // time of last occupancy accumulation

	protocol Protocol
	alpha    float64
	counters Counters

	// tally, when non-nil, replaces the single-assignment protocol path
	// with family counting: each access records its component vote total
	// into a read or write histogram, from which the Counters of *every*
	// assignment in the paper's family follow by one suffix-sum pass. The
	// RNG draw order is identical to the protocol path, so a tally run
	// follows the exact event trajectory of a protocol run.
	tally *familyTally

	// strat, when non-nil, judges each access by sampling a quorum from a
	// randomized strategy (own RNG substream) and checking it against the
	// submitter's component; see SetStrategyPolicy.
	strat *StrategyPolicy

	// pendGrant/pendDeny batch the per-access observability counter
	// updates; they are flushed into obs at the end of every Run* call so
	// a steady-state access touches no atomics. The pendStrat* fields do
	// the same for the strategy-policy counters.
	pendGrant      int64
	pendDeny       int64
	pendStratRead  int64
	pendStratWrite int64
	pendStratDeny  int64
	pendStratProbe int64

	// Correlated-shock bookkeeping: a site is effectively up iff its
	// independent process says up AND no active shock covers it.
	indepUp    []bool
	shockCount []int
	shocks     map[int][]int // shock id → affected sites
	nextShock  int

	// OnAccess, if set, is invoked for every access event with the
	// submitting site, its component vote total and the current time.
	OnAccess func(site, votes int, t float64)
	// OnChange, if set, is invoked after every failure/repair event.
	OnChange func(t float64)

	// obs, when non-nil, receives per-event counters and topology trace
	// events (see AttachObs); observation never affects the event stream.
	obs *obs.Registry
}

// New creates a simulator over graph g with the given per-site votes (nil
// for one vote per site), parameters and RNG seed. All sites and links
// start up; failure clocks start immediately. Access events are scheduled
// lazily when a consumer needs them (estimator in sampled mode, protocol
// counting, or RunAccesses).
func New(g *graph.Graph, votes []int, p Params, seed uint64) *Simulator {
	if err := p.validate(); err != nil {
		panic(err)
	}
	if p.AccessWeights != nil && len(p.AccessWeights) != g.N() {
		panic(fmt.Sprintf("sim: %d access weights for %d sites", len(p.AccessWeights), g.N()))
	}
	s := &Simulator{
		st:     graph.NewState(g, votes),
		params: p,
		src:    rng.New(seed),
	}
	// Steady state holds at most one pending event per component (fail or
	// repair), one access per site, and a small shock margin; sizing the
	// heap for that bound up front keeps every later push allocation-free.
	s.heap.grow(2*g.N() + g.M() + 8)
	if err := p.Shock.validate(); err != nil {
		panic(err)
	}
	if p.Shock != nil {
		s.indepUp = make([]bool, g.N())
		s.shockCount = make([]int, g.N())
		s.shocks = map[int][]int{}
	}
	s.arm()
	return s
}

// arm schedules the initial failure clocks (and the first shock) from the
// current RNG state, exactly as construction does. The clocks are drawn and
// numbered in site-then-link order and put in heap order once.
func (s *Simulator) arm() {
	g := s.st.Graph()
	for i := 0; i < g.N(); i++ {
		s.heap.stage(s.drawUpTime(), evSiteFail, i)
	}
	for l := 0; l < g.M(); l++ {
		s.heap.stage(s.drawUpTime(), evLinkFail, l)
	}
	s.heap.heapify()
	if s.params.Shock != nil {
		for i := range s.indepUp {
			s.indepUp[i] = true
		}
		for i := range s.shockCount {
			s.shockCount[i] = 0
		}
		clear(s.shocks)
		s.nextShock = 0
		s.heap.push(s.src.Exp(s.params.Shock.Mean), evShockBegin, 0)
	}
}

// Reset rewinds the simulator to the state New would produce over the same
// graph, votes and parameters with the given seed: every component up, all
// clocks redrawn from the fresh seed, time and counters zeroed, and the
// consumer attachments (estimator, protocol, family tally, net stats)
// cleared so the caller re-attaches what the next run needs. The attached
// observability registry and the OnAccess/OnChange hooks are kept.
//
// A Reset simulator produces the bit-identical event stream of a freshly
// constructed one — the batch runners rely on this to reuse one simulator's
// state, heap and RNG across batches with zero per-batch allocation.
func (s *Simulator) Reset(seed uint64) {
	s.flushObs()
	s.src.Reseed(seed)
	s.st.SetAll(true)
	s.heap.reset()
	s.now = 0
	s.last = 0
	s.nAccess = 0
	s.counters = Counters{}
	s.genAcc = false
	s.genAccessWeighted = false
	s.est = nil
	s.surv = nil
	s.net = nil
	s.protocol = nil
	s.tally = nil
	s.strat = nil
	s.alpha = 0
	s.arm()
}

// drawUpTime samples a component's next up-time: exponential by default,
// Weibull with the configured shape (same mean) otherwise.
func (s *Simulator) drawUpTime() float64 {
	if s.params.FailShape > 0 && s.params.FailShape != 1 {
		return s.src.WeibullMean(s.params.FailShape, s.params.FailMean)
	}
	return s.src.Exp(s.params.FailMean)
}

// siteEffectivelyUp combines the independent process with active shocks.
func (s *Simulator) siteEffectivelyUp(i int) bool {
	if s.indepUp == nil {
		return true
	}
	return s.indepUp[i] && s.shockCount[i] == 0
}

// State exposes the live network state (read-mostly; mutate at your own
// risk — the replica layer uses it to inspect components).
func (s *Simulator) State() *graph.State { return s.st }

// Now returns the current simulation time.
func (s *Simulator) Now() float64 { return s.now }

// AccessCount returns the number of access events processed so far.
func (s *Simulator) AccessCount() int64 { return s.nAccess }

// Counters returns the grant/deny tallies (zero unless a protocol is set).
func (s *Simulator) Counters() Counters { return s.counters }

// ResetCounters clears the grant/deny tallies (e.g. after warm-up).
func (s *Simulator) ResetCounters() { s.counters = Counters{} }

// AttachEstimator directs access observations (sampled mode) into est.
// Enables access event generation.
func (s *Simulator) AttachEstimator(est *core.Estimator) {
	s.est = est
	s.ensureAccessEvents()
}

// AttachTimeWeighted directs time-weighted occupancy into est (and the
// optional SURV estimator): every inter-event interval contributes its
// duration to each site's current component vote count. No access events
// are needed.
func (s *Simulator) AttachTimeWeighted(est *core.Estimator, surv *core.SurvEstimator) {
	s.est = est
	s.surv = surv
	s.genAccessWeighted = true
	s.last = s.now
}

// AttachObs directs simulator observability — topology event and access
// grant/deny counters plus EvTopology trace events — into registry r (nil
// detaches). Unlike the estimator attachments it draws no randomness and
// schedules nothing, so attaching it cannot perturb the event stream.
func (s *Simulator) AttachObs(r *obs.Registry) { s.obs = r }

// SetProtocol attaches a protocol and read fraction α for direct grant/deny
// measurement. Enables access event generation and clears any family tally.
func (s *Simulator) SetProtocol(p Protocol, alpha float64) {
	if alpha < 0 || alpha > 1 {
		panic(fmt.Sprintf("sim: α=%g out of [0,1]", alpha))
	}
	s.protocol = p
	s.tally = nil
	s.strat = nil
	s.alpha = alpha
	s.ensureAccessEvents()
}

// setFamilyTally attaches a family tally and read fraction α: every access
// records its component vote total into t's read or write histogram instead
// of being judged against a single assignment. Enables access event
// generation and clears any protocol.
func (s *Simulator) setFamilyTally(t *familyTally, alpha float64) {
	if alpha < 0 || alpha > 1 {
		panic(fmt.Sprintf("sim: α=%g out of [0,1]", alpha))
	}
	s.tally = t
	s.protocol = nil
	s.strat = nil
	s.alpha = alpha
	s.ensureAccessEvents()
}

// flushObs pushes the batched access grant/deny counts into the attached
// registry. Called at the end of every Run* so registry totals always
// account for every processed event once control returns to the caller.
func (s *Simulator) flushObs() {
	if s.obs != nil {
		if s.pendGrant != 0 {
			s.obs.Add(obs.CSimAccessGrant, s.pendGrant)
		}
		if s.pendDeny != 0 {
			s.obs.Add(obs.CSimAccessDeny, s.pendDeny)
		}
	}
	s.pendGrant, s.pendDeny = 0, 0
	s.flushStratObs()
}

func (s *Simulator) ensureAccessEvents() {
	if s.genAcc {
		return
	}
	s.genAcc = true
	for i := 0; i < s.st.Graph().N(); i++ {
		if mean := s.params.accessMeanAt(i); mean > 0 {
			s.heap.push(s.now+s.src.Exp(mean), evAccess, i)
		}
	}
}

// NetStats accumulates time-weighted topology observability metrics.
type NetStats struct {
	elapsed    float64
	compTime   float64 // ∫ number of live components dt
	maxTime    float64 // ∫ largest-component votes dt
	upTime     float64 // ∫ up-site count dt
	partitions int64   // events after which >1 component existed
	events     int64   // failure/repair events observed
}

// MeanComponents returns the time-average number of live components.
func (n *NetStats) MeanComponents() float64 { return safeDiv(n.compTime, n.elapsed) }

// MeanLargestVotes returns the time-average vote total of the largest
// component.
func (n *NetStats) MeanLargestVotes() float64 { return safeDiv(n.maxTime, n.elapsed) }

// MeanUpSites returns the time-average number of up sites.
func (n *NetStats) MeanUpSites() float64 { return safeDiv(n.upTime, n.elapsed) }

// PartitionedFraction returns the fraction of failure/repair events that
// left the network split into more than one component.
func (n *NetStats) PartitionedFraction() float64 {
	return safeDiv(float64(n.partitions), float64(n.events))
}

// Events returns the number of failure/repair events observed.
func (n *NetStats) Events() int64 { return n.events }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// AttachNetStats directs time-weighted topology statistics into ns. Like
// AttachTimeWeighted, it activates interval accumulation.
func (s *Simulator) AttachNetStats(ns *NetStats) {
	s.net = ns
	s.genAccessWeighted = true
	s.last = s.now
}

// accumulate charges the interval since the last accumulation to the
// current component occupancy of every site (time-weighted mode) and the
// attached topology statistics.
func (s *Simulator) accumulate(until float64) {
	dt := until - s.last
	if dt <= 0 {
		return
	}
	st, n := s.st, s.st.Graph().N()
	if est := s.est; est != nil {
		for i := 0; i < n; i++ {
			est.ObserveFor(i, st.VotesAt(i), dt)
		}
	}
	if s.surv != nil {
		s.surv.ObserveFor(s.st.MaxComponentVotes(), dt)
	}
	if s.net != nil {
		s.net.elapsed += dt
		s.net.compTime += dt * float64(s.st.NumComponents())
		s.net.maxTime += dt * float64(s.st.MaxComponentVotes())
		up := 0
		for i := 0; i < n; i++ {
			if s.st.SiteUp(i) {
				up++
			}
		}
		s.net.upTime += dt * float64(up)
	}
	s.last = until
}

// observeTopology records one topology event into the attached registry:
// its per-kind counter (skipped for shocks, whose site counts are added by
// the caller — ctr 0 is the skip sentinel) and, when tracing, an EvTopology
// event carrying the raw event kind and the up/down direction.
func (s *Simulator) observeTopology(ctr obs.CounterID, e event, up bool) {
	if s.obs == nil {
		return
	}
	if ctr != 0 {
		s.obs.Inc(ctr)
	}
	b := int64(0)
	if up {
		b = 1
	}
	s.obs.Emit(obs.EvTopology, -1, int32(e.idx), int64(e.kind), b)
}

// step processes the next event. It returns the event kind.
func (s *Simulator) step() eventKind {
	e := s.heap.pop()
	if s.genAccessWeighted && e.kind != evAccess {
		s.accumulate(e.at)
	}
	s.now = e.at
	switch e.kind {
	case evSiteFail:
		if s.indepUp != nil {
			s.indepUp[e.idx] = false
		}
		s.st.FailSite(e.idx)
		s.heap.push(s.now+s.src.Exp(s.params.RepairMean), evSiteRepair, e.idx)
		s.observeTopology(obs.CSimSiteFail, e, false)
		if s.OnChange != nil {
			s.OnChange(s.now)
		}
	case evSiteRepair:
		if s.indepUp != nil {
			s.indepUp[e.idx] = true
		}
		if s.siteEffectivelyUp(e.idx) {
			s.st.RepairSite(e.idx)
		}
		s.heap.push(s.now+s.drawUpTime(), evSiteFail, e.idx)
		s.observeTopology(obs.CSimSiteRepair, e, true)
		if s.OnChange != nil {
			s.OnChange(s.now)
		}
	case evShockBegin:
		shock := s.params.Shock
		start := s.src.Intn(s.st.Graph().N())
		n := s.st.Graph().N()
		sites := make([]int, 0, shock.Size)
		for k := 0; k < shock.Size && k < n; k++ {
			i := (start + k) % n
			sites = append(sites, i)
			s.shockCount[i]++
			s.st.FailSite(i)
		}
		s.nextShock++
		s.shocks[s.nextShock] = sites
		s.heap.push(s.now+s.src.Exp(shock.Duration), evShockEnd, s.nextShock)
		s.heap.push(s.now+s.src.Exp(shock.Mean), evShockBegin, 0)
		s.obs.Add(obs.CSimSiteFail, int64(len(sites)))
		s.observeTopology(0, e, false)
		if s.OnChange != nil {
			s.OnChange(s.now)
		}
	case evShockEnd:
		sites := s.shocks[e.idx]
		delete(s.shocks, e.idx)
		for _, i := range sites {
			s.shockCount[i]--
			if s.siteEffectivelyUp(i) {
				s.st.RepairSite(i)
			}
		}
		s.obs.Add(obs.CSimSiteRepair, int64(len(sites)))
		s.observeTopology(0, e, true)
		if s.OnChange != nil {
			s.OnChange(s.now)
		}
	case evLinkFail:
		s.st.FailLink(e.idx)
		s.heap.push(s.now+s.src.Exp(s.params.RepairMean), evLinkRepair, e.idx)
		s.observeTopology(obs.CSimLinkFail, e, false)
		if s.OnChange != nil {
			s.OnChange(s.now)
		}
	case evLinkRepair:
		s.st.RepairLink(e.idx)
		s.heap.push(s.now+s.drawUpTime(), evLinkFail, e.idx)
		s.observeTopology(obs.CSimLinkRepair, e, true)
		if s.OnChange != nil {
			s.OnChange(s.now)
		}
	case evAccess:
		s.nAccess++
		votes := s.st.VotesAt(e.idx)
		if s.est != nil && !s.genAccessWeighted {
			s.est.Observe(e.idx, votes)
		}
		if s.tally != nil {
			// Same Bernoulli draw as the protocol path, so the event
			// trajectory is identical; grant-ness is assignment-dependent
			// and resolved later by the suffix-sum pass.
			if s.src.Bernoulli(s.alpha) {
				s.tally.reads[votes]++
			} else {
				s.tally.writes[votes]++
			}
		} else if s.strat != nil {
			s.stratAccess(e.idx)
		} else if s.protocol != nil {
			if s.src.Bernoulli(s.alpha) {
				if s.protocol.GrantRead(votes) {
					s.counters.ReadsGranted++
					s.pendGrant++
				} else {
					s.counters.ReadsDenied++
					s.pendDeny++
				}
			} else {
				if s.protocol.GrantWrite(votes) {
					s.counters.WritesGranted++
					s.pendGrant++
				} else {
					s.counters.WritesDenied++
					s.pendDeny++
				}
			}
		}
		if s.OnAccess != nil {
			s.OnAccess(e.idx, votes, s.now)
		}
		s.heap.push(s.now+s.src.Exp(s.params.accessMeanAt(e.idx)), evAccess, e.idx)
	}
	if s.net != nil && e.kind != evAccess {
		s.net.events++
		if s.st.NumComponents() > 1 {
			s.net.partitions++
		}
	}
	return e.kind
}

// RunUntil processes events until simulated time t (events at exactly t are
// not processed). In time-weighted mode the trailing partial interval up to
// t is accumulated.
func (s *Simulator) RunUntil(t float64) {
	for s.heap.len() > 0 && s.heap.peek().at < t {
		s.step()
	}
	if s.genAccessWeighted {
		s.accumulate(t)
	}
	if t > s.now {
		s.now = t
	}
	s.flushObs()
}

// RunAccesses processes events until n further access events have occurred,
// scheduling the per-site access streams first if no consumer has yet.
func (s *Simulator) RunAccesses(n int64) {
	s.ensureAccessEvents()
	target := s.nAccess + n
	for s.nAccess < target {
		s.step()
	}
	s.flushObs()
}

// StaticProtocol adapts a quorum.Assignment to the Protocol interface.
type StaticProtocol struct {
	Assignment quorum.Assignment
}

// GrantRead implements Protocol.
func (p StaticProtocol) GrantRead(votes int) bool { return p.Assignment.GrantRead(votes) }

// GrantWrite implements Protocol.
func (p StaticProtocol) GrantWrite(votes int) bool { return p.Assignment.GrantWrite(votes) }
