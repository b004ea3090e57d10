package cluster

import (
	"fmt"

	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
	"quorumkit/internal/stats"
	"quorumkit/internal/strategy"
)

// Strategy serving: the coordinator can serve reads and writes off an
// installed randomized quorum strategy (internal/strategy) instead of
// probing the whole component. A sampled quorum holds at least the
// assignment's threshold votes by construction, so an operation that
// reaches *every* member of its sampled quorum is granted with the same
// safety argument as the deterministic protocol — vote intersection for
// freshness, majority votes for split-brain freedom — while touching only
// the sites the LP's load balance chose.
//
// The serving ladder per operation:
//
//  1. If the coordinator's assignment version differs from the version the
//     strategy was installed against, the strategy is stale — fall back to
//     the deterministic path immediately (a stale-version strategy is never
//     sampled; the property tests pin this).
//  2. Sample a quorum and probe exactly its members. If every member
//     answers, grant. If any member is unreachable (down, partitioned,
//     amnesiac), redraw — at most budget samples per operation.
//  3. Budget exhausted: fall back to the deterministic component-wide
//     round, which degrades further through the health gate's typed
//     errors. An operation never hangs and never returns an untyped
//     failure.
//
// Strategy rounds never feed the §4.2 estimator: their vote totals are
// whatever the sampler targeted, not an unbiased sample of the component,
// so recording them would bias the on-line density the daemon optimizes
// over. The heartbeat probes remain the only fixed-rate sample.
//
// Re-solving under adversity: when HealthConfig.Strategy.Enabled is set,
// every daemon reassignment attempt is followed by a survivor-restricted
// re-solve — OptimizeResilientCapacity over the unsuspected sites at the
// current thresholds — and the result is installed only after its KKT
// certificate checks. An infeasible or uncertifiable solve degrades to
// deterministic serving (the sampler is cleared) instead of erroring. Each
// survivor set and thresholds is solved once per config (resolveMemo).

// strategyState is the cluster-wide installed strategy shared by all
// coordinators of one runtime. The sampler, version and RNG belong to the
// operation slot (DESIGN §18): serving, daemon re-solves and Async's
// install and counter reads each run inside one serialized operation.
type strategyState struct {
	sampler  *strategy.Sampler
	version  int64 // assignment version the strategy was solved against
	budget   int   // max sampled quorums per operation
	src      *rng.Source
	counters stats.StrategyCounters
}

// strategySystem is the strategy.System an installed distribution is
// validated against: the runtime's per-site votes, the assignment's
// thresholds, and unit capacities (the runtimes care about threshold
// safety, not absolute throughput).
func strategySystem(votes []int, assign quorum.Assignment) strategy.System {
	unit := make([]float64, len(votes))
	for i := range unit {
		unit[i] = 1
	}
	return strategy.System{Votes: votes, QR: assign.QR, QW: assign.QW,
		ReadCap: unit, WriteCap: unit, Latency: unit}
}

// install validates st against the runtime's votes at the assignment's
// thresholds and arms the sampler. The RNG substream survives re-installs
// so re-solves do not reset the sampling sequence.
func (s *strategyState) install(st strategy.Strategy, votes []int, assign quorum.Assignment, version int64, budget int, seed uint64) error {
	if err := st.Validate(strategySystem(votes, assign)); err != nil {
		return fmt.Errorf("cluster: install strategy: %w", err)
	}
	if budget < 1 {
		budget = 1
	}
	s.sampler = strategy.NewSampler(st.Canonical(0))
	s.version = version
	s.budget = budget
	if s.src == nil {
		s.src = rng.New(seed)
	}
	s.counters.Installs++
	return nil
}

// draw opens one attempt of the serving ladder: it accounts the redraw when
// a previous attempt failed, checks that the sampler is armed and not stale
// against the coordinator's assignment version, and samples a quorum from
// the shared RNG. ok is false when the caller must leave the ladder.
func (s *strategyState) draw(write, redraw bool, nodeVersion int64) (q strategy.Quorum, budget int, stale, ok bool) {
	if redraw {
		s.counters.Resamples++
	}
	switch {
	case s.sampler == nil:
		return nil, 0, false, false
	case s.version != nodeVersion:
		return nil, 0, true, false
	case write:
		return s.sampler.SampleWrite(s.src), s.budget, false, true
	}
	return s.sampler.SampleRead(s.src), s.budget, false, true
}

// settle accounts how the ladder ended: with a sampled grant, or with a
// fallback to the deterministic path (a stale one when the strategy no
// longer matches the assignment in force).
func (s *strategyState) settle(granted, write, stale bool) {
	switch {
	case !granted:
		s.counters.Fallbacks++
		if stale {
			s.counters.StaleFallbacks++
		}
	case write:
		s.counters.SampledWrites++
	default:
		s.counters.SampledReads++
	}
}

// StrategyResolveConfig tunes the daemon's availability-aware strategy
// re-solving (HealthConfig.Strategy).
type StrategyResolveConfig struct {
	// Enabled turns the re-solve hook on. Without it the daemon leaves any
	// installed strategy alone (and version drift disarms it).
	Enabled bool
	// Resilience is the f handed to OptimizeResilientCapacity: sampled
	// quorums keep their threshold after any f member failures.
	Resilience int
	// Seed seeds the sampling RNG when the first install happens through a
	// re-solve.
	Seed uint64
}

// resolveCertTol is the KKT certificate tolerance a re-solved strategy must
// pass before installation; it installs with resample budget strategyBudget.
const resolveCertTol = 1e-6

// resolveMemoCap bounds the entries of one resolveMemo; past it, misses are
// solved cold and not stored.
const resolveMemoCap = 256

// resolveMemo holds the daemon's cold survivor solves under one
// EnableSelfHealing config. The key is the only LP input that varies while
// the config is in force — the votes and StrategyResolveConfig are fixed with
// it — so the memo lives in healthState and is dropped with the config.
type resolveMemo map[resolveKey]resolved

// resolveKey is a survivor set (one bit per site) and the thresholds.
type resolveKey struct {
	survivors string
	qr, qw    int
}

// resolved is one cold solve's outcome: the certified strategy remapped to
// global site ids, or the error the cold path returned.
type resolved struct {
	st  strategy.Strategy
	err error
}

// resolve re-runs the resilient capacity LP restricted to the surviving
// (unsuspected) sites at coordinator x's current thresholds and installs
// the certified result at x's current version. Any failure — thresholds
// unreachable by the survivors, LP infeasibility, a certificate miss —
// clears the sampler instead of erroring: serving degrades to the
// deterministic assignment, which the health gate already protects. A
// survivor set and thresholds already in memo re-install the stored
// outcome instead of solving again; install still validates it.
func (s *strategyState) resolve(cfg HealthConfig, memo resolveMemo, votes []int, suspected []int, assign quorum.Assignment, version int64, reg *obs.Registry) (bool, error) {
	sus := make([]bool, len(votes))
	for _, p := range suspected {
		if p >= 0 && p < len(votes) {
			sus[p] = true
		}
	}
	var sites []int
	mask := make([]byte, (len(votes)+7)/8)
	for i := range votes {
		if !sus[i] {
			sites = append(sites, i)
			mask[i/8] |= 1 << (i % 8)
		}
	}
	key := resolveKey{survivors: string(mask), qr: assign.QR, qw: assign.QW}
	r, hit := memo[key]
	if !hit {
		r = solveSurvivors(cfg, votes, sites, assign)
		s.counters.ResolveSolves++
		if len(memo) < resolveMemoCap {
			memo[key] = r
		}
	}
	degrade := func(err error) (bool, error) {
		s.sampler = nil // serving degrades to the deterministic path
		s.counters.ResolveFails++
		return false, err
	}
	if r.err != nil {
		return degrade(r.err)
	}
	if err := s.install(r.st, votes, assign, version, strategyBudget, cfg.Strategy.Seed); err != nil {
		return degrade(err)
	}
	s.counters.Resolves++
	reg.Inc(obs.CStrategyResolve)
	return true, nil
}

// solveSurvivors is the cold re-solve: the resilient capacity LP over the
// survivor sites (ascending global ids) at assign's thresholds, with unit
// capacities (pure load balancing) priced at the read fraction cfg.Alpha,
// certified and remapped to global site ids.
func solveSurvivors(cfg HealthConfig, votes, sites []int, assign quorum.Assignment) resolved {
	sub := strategy.System{
		Votes: make([]int, len(sites)), QR: assign.QR, QW: assign.QW,
		ReadCap:  make([]float64, len(sites)),
		WriteCap: make([]float64, len(sites)),
		Latency:  make([]float64, len(sites)),
	}
	for j, g := range sites {
		sub.Votes[j] = votes[g]
		sub.ReadCap[j], sub.WriteCap[j], sub.Latency[j] = 1, 1, 1
	}
	if err := sub.Validate(); err != nil {
		return resolved{err: err}
	}
	res, err := strategy.OptimizeResilientCapacity(sub, strategy.SingleFr(cfg.Alpha), cfg.Strategy.Resilience, strategy.Options{})
	if err != nil {
		return resolved{err: err}
	}
	if err := res.Certify(resolveCertTol); err != nil {
		return resolved{err: err}
	}
	// Remap the solve's survivor-local site indices to global ids; the
	// survivor list is ascending, so quorums stay sorted.
	remap := func(qs []strategy.Quorum) []strategy.Quorum {
		out := make([]strategy.Quorum, len(qs))
		for i, q := range qs {
			gq := make(strategy.Quorum, len(q))
			for k, j := range q {
				gq[k] = sites[j]
			}
			out[i] = gq
		}
		return out
	}
	return resolved{st: strategy.Strategy{
		ReadQuorums: remap(res.Strategy.ReadQuorums), ReadProbs: res.Strategy.ReadProbs,
		WriteQuorums: remap(res.Strategy.WriteQuorums), WriteProbs: res.Strategy.WriteProbs,
	}}
}

// InstallStrategy arms sampled-quorum serving: st is validated against the
// given assignment's thresholds over the cluster's votes and tied to the
// given assignment version. ServeRead and ServeWrite consult the sampler
// only while the coordinator's installed version matches; any reassignment
// disarms it until a re-solve.
func (k *coordinator) InstallStrategy(st strategy.Strategy, assign quorum.Assignment, version int64, budget int, seed uint64) error {
	if k.strat == nil {
		k.strat = &strategyState{}
	}
	return k.strat.install(st, k.voteVector(), assign, version, budget, seed)
}

// StrategyCounters returns a snapshot of the strategy-serving counters.
func (k *coordinator) StrategyCounters() stats.StrategyCounters {
	if k.strat == nil {
		return stats.StrategyCounters{}
	}
	return k.strat.counters
}

// voteVector snapshots the per-site votes.
func (k *coordinator) voteVector() []int {
	votes := make([]int, len(k.all))
	for i := range votes {
		votes[i] = k.st.Votes(i)
	}
	return votes
}

// strategyResolve re-solves the installed strategy after a daemon attempt
// at node x. A no-op until a strategy has been installed; pure LP work plus
// an install, no message rounds.
func (k *coordinator) strategyResolve(x int, suspected []int) {
	if k.strat == nil {
		return
	}
	_, s := k.view(x)
	k.strat.resolve(k.health.cfg, k.health.memo, k.voteVector(), suspected, s.Assignment(), s.Version, k.obs)
}

// strategyServe runs the sampled-quorum ladder for one operation at
// coordinator x. served is false when the caller must fall back to the
// deterministic path (stale strategy, newer version discovered mid-round,
// or resample budget exhausted); when served is true the operation was
// granted off a sampled quorum.
func (k *coordinator) strategyServe(x int, write bool, value int64) (Outcome, bool) {
	s := k.strat
	version := k.NodeVersion(x)
	fallback := func(stale bool) (Outcome, bool) {
		s.settle(false, write, stale)
		k.obs.Inc(obs.CStrategyFallback)
		return Outcome{}, false
	}
	for attempt := 1; ; attempt++ {
		q, budget, stale, ok := s.draw(write, attempt > 1, version)
		if stale {
			return fallback(true)
		}
		if !ok {
			return Outcome{}, false
		}
		val, stamp, granted, newer := k.strategyRound(x, q, version, write, value)
		if newer {
			// A member answered from a newer assignment: the installed
			// strategy no longer matches the thresholds in force.
			return fallback(true)
		}
		if granted {
			s.settle(true, write, false)
			if write {
				k.obs.Inc(obs.CStrategyWrite)
			} else {
				k.obs.Inc(obs.CStrategyRead)
			}
			return Outcome{Granted: true, Value: val, Stamp: stamp, Attempts: attempt}, true
		}
		if attempt >= budget {
			// The final failed attempt is the fallback, not a redraw.
			return fallback(false)
		}
		k.obs.Inc(obs.CStrategyResample) // counted by the next draw
	}
}

// strategyRound probes exactly the members of one sampled quorum from
// coordinator x and grants — returning the value read or written and its
// stamp — iff every member answered; a member that is down, partitioned
// away or amnesiac counts as unanswered. newer reports
// that a reply carried an assignment version beyond the installed one
// (adopted into x before returning). The round never feeds the §4.2
// estimator: its sync push carries votesSeen 0.
func (k *coordinator) strategyRound(x int, q strategy.Quorum, version int64, write bool, value int64) (val, stamp int64, granted, newer bool) {
	op := OpRead
	if write {
		op = OpWrite
	}
	k.obs.Add(obs.CStrategyProbe, int64(len(q)))
	replies, _ := k.tr.exchange(x, q, msg{tag: tagVoteRequest, op: op})

	_, eff := k.view(x)
	missing := len(q) // members yet to answer; x, when sampled, answers itself
	for _, m := range q {
		if m == x {
			missing--
		}
	}
	replies = k.dedup(replies)
	missing -= len(replies)
	for i := range replies {
		eff.Adopt(replies[i].copy())
	}
	if eff.Version > version {
		self := k.tr.lock(x)
		if self.Adopt(eff) {
			self.persistState()
		}
		k.tr.unlock(x)
		return 0, 0, false, true
	}
	if missing > 0 {
		return 0, 0, false, false // unreachable member: redraw
	}

	if !write {
		self := k.tr.lock(x)
		if self.Adopt(eff) {
			self.persistState()
		}
		self.syncStore()
		k.tr.unlock(x)
		k.tr.post(x, q, stateMsg(tagSyncState, eff))
		return eff.Value, eff.Stamp, true, false
	}
	stamp = eff.Stamp + 1
	k.applyLocal(x, value, stamp)
	k.tr.post(x, q, msg{tag: tagApplyWrite, value: value, stamp: stamp})
	return value, stamp, true, false
}
