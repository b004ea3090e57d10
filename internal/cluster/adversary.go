package cluster

import (
	"fmt"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/history"
	"quorumkit/internal/obs"
	"quorumkit/internal/rng"
	"quorumkit/internal/sim"
	"quorumkit/internal/stats"
	"quorumkit/internal/strategy"
	"quorumkit/internal/workload"
)

// Scenario driver: replay one seeded scenario — site and link churn,
// amnesiac repairs, partition storms, correlated regional failures, gray
// slowness, a nonstationary workload — against a runtime, and answer two
// questions about the one run: did the self-healing loop stay live (1SR,
// version convergence and availability recovered after healing — the churn
// soak, SoakScenario), and how far did it fall short of the best it could
// have done (cumulative regret against an epoch oracle).
//
// The oracle is the paper's optimizer re-run with hindsight: each epoch,
// an EpochTally records the realized read fraction and the empirical
// densities of votes reachable from each operation's coordinator, and one
// O(T) curve-kernel call yields the availability of the best assignment
// the optimizer could have installed for exactly that epoch. The gap
// between that and the realized grant rate, weighted by the epoch's
// operation count and summed, is the run's regret. Because the scenario is
// pure in the seed — churn events from the churn seed, amnesia from its own
// stream, the operation schedule from the schedule's streams, daemon sweeps
// at fixed step indices consuming no randomness — a daemon-on and a
// daemon-off run, both runtimes and repeated runs all replay the identical
// stimulus, so "self-healing raises availability" and "lowers regret" are
// like-for-like comparisons.
//
// The mirror graph.State tracks the true topology (the runtime's own view
// is what is being judged, so it cannot also be the referee): churn events
// are applied to runtime and mirror in lockstep, and reachable votes are
// the mirror component members with both partition directions open —
// exactly the peers whose request and reply a coordinator's round can
// traverse. The same mirror arms the safety tripwire: a granted write
// whose coordinator could reach at most a minority of votes would mean a
// forked timeline, so it is counted (and must stay zero — Validate forces
// every write quorum to a strict majority).

// AdversaryConfig parameterizes one scenario replay.
type AdversaryConfig struct {
	Seed  uint64
	Steps int // churn-phase steps (each serves one batch of the schedule's ops)
	Sites int // must match the runtime's and mirror's topology
	Links int

	// Workload is the nonstationary read-fraction pattern α(t); nil means a
	// balanced constant mix. Rate scales the per-step operation count
	// (nil: constant factor 1) around a mean of one operation a step.
	Workload workload.Pattern
	Rate     workload.RatePattern

	// Churn drives site/link failures; its Regions/ShockMTBF fields add
	// correlated regional shocks. LinkFaults (optional) is the message-level
	// timetable of cuts and gray slowdowns, keyed by the step index.
	// Adaptive (optional) is an adversary whose next move is a function of
	// the installed assignment and suspicion set; its cuts and slowdowns
	// append to the run's private copy of LinkFaults at step boundaries —
	// the caller's schedule is never written — so it requires the
	// deterministic runtime (the concurrent one consults the schedule from
	// delivery goroutines).
	Churn      faults.ChurnConfig
	LinkFaults *faults.LinkSchedule
	Adaptive   *faults.QRCritical

	// AmnesiaFraction is the probability that a site repaired by churn comes
	// back with wiped storage (a replaced machine) and must rejoin by state
	// transfer. Zero (the default) consumes no randomness, so schedules of
	// amnesia-free configs are unchanged. It composes with every other
	// field: link faults and installed strategies included. The
	// mirror tracks topology only, and an amnesiac peer is reachable but
	// silent until readmitted: its votes still count as reachable (the
	// oracle overstates, the minority-write tripwire stays sound) and a
	// suspicion raised against it counts in FalsePositives.
	AmnesiaFraction float64

	// RecordLatency runs the hedged-read model (gray.go) after every
	// granted read and captures the read's modeled latency; Hedge lets the
	// model send backup probes.
	Hedge         bool
	RecordLatency bool

	// Strategy (optional) is a randomized quorum strategy installed before
	// the scenario starts, served through the sampled-quorum ladder with
	// resample budget strategyBudget and sampling seed StrategySeed. With
	// Daemon and Health.Strategy.Enabled set, the daemon re-solves it on
	// suspicion edges; without, the strategy is frozen and version drift
	// disarms it.
	Strategy     *strategy.Strategy
	StrategySeed uint64

	// Daemon enables self-healing, swept every daemonEvery steps. When
	// false the run is the static baseline the availability and regret
	// comparisons judge against.
	Daemon bool
	Health HealthConfig

	// schedule builds the run's operation stream; nil means poissonOps. It is
	// the one thing SoakScenario changes, and not an option: a scenario is
	// either the soak (soakOps) or it is not.
	schedule func(AdversaryConfig) opSchedule
}

// What no scenario varies: the mean operations a step the rate pattern
// scales, the resample budget of an installed strategy, the daemon's sweep
// period in steps, and the oracle's re-optimization period in steps. The
// post-heal settle window is a tenth of the run.
const (
	meanOpsPerStep = 1
	strategyBudget = 3
	daemonEvery    = 2
	epochSteps     = 50
)

// normalized fills defaults.
func (cfg AdversaryConfig) normalized() AdversaryConfig {
	if cfg.Workload == nil {
		cfg.Workload = workload.Constant(0.5)
	}
	if cfg.schedule == nil {
		cfg.schedule = poissonOps
	}
	return cfg
}

// opSchedule is a scenario's operation stream, drawn purely from the seed
// and never from outcomes: how many operations churn step t serves (a
// settle step always serves one), and each operation's coordinator and kind.
type opSchedule struct {
	batch func(t float64) int
	next  func(t float64) (site int, read bool)
}

// poissonOps is the default stream: the coordinator from seed^0xad5e, the
// kind from a workload.Generator on seed^0x9ead following α(t), and a
// Poisson batch size from seed^0xf1a5 following the rate pattern.
func poissonOps(cfg AdversaryConfig) opSchedule {
	src := rng.New(cfg.Seed ^ 0xad5e)
	gen := workload.NewGenerator(cfg.Workload, cfg.Seed^0x9ead)
	arrivals := workload.NewArrivals(cfg.Rate, meanOpsPerStep, cfg.Seed^0xf1a5)
	return opSchedule{
		batch: arrivals.At,
		next:  func(t float64) (int, bool) { return src.Intn(cfg.Sites), gen.IsRead(t) },
	}
}

// soakOps is the churn soak's stream: exactly one operation a step, its
// coordinator and then its kind drawn interleaved from seed^0x50ac.
func soakOps(cfg AdversaryConfig) opSchedule {
	src := rng.New(cfg.Seed ^ 0x50ac)
	return opSchedule{
		batch: func(float64) int { return 1 },
		next: func(t float64) (int, bool) {
			site := src.Intn(cfg.Sites)
			return site, src.Float64() < cfg.Workload.Alpha(t)
		},
	}
}

// SoakScenario is the churn soak as a scenario: steps serving-layer
// operations at read fraction alpha, one per step, while seeded renewal
// processes fail and repair sites and links, with the self-healing daemon
// (optionally) sweeping in the background. The caller asserts the liveness
// properties the daemon promises on the returned run — Converged,
// SettleAvailability back at the healed-topology optimum, Availability at
// or above the daemon-off replay of the same config — on top of
// ViolationErr == nil and MinorityWrites == 0. Set AmnesiaFraction (or any
// other field) on the result to compose.
func SoakScenario(seed uint64, steps, sites, links int, alpha float64, churn faults.ChurnConfig, daemon bool, health HealthConfig) AdversaryConfig {
	return AdversaryConfig{
		Seed: seed, Steps: steps, Sites: sites, Links: links,
		Workload: workload.Constant(alpha), Churn: churn,
		Daemon: daemon, Health: health,
		schedule: soakOps,
	}
}

// EpochStat is one closed oracle epoch.
type EpochStat struct {
	Step      int     // step index at which the epoch closed
	Ops       int64   // operations recorded in the epoch
	Alpha     float64 // realized read fraction
	GrantRate float64 // realized availability
	Oracle    float64 // best hindsight availability for this epoch
	OracleQR  int     // the hindsight-optimal read quorum
	Regret    float64 // (Oracle − GrantRate) · Ops
	// Bucket classifies the epoch's regret: "detect" when some up node's
	// suspicion view contradicted the mirror truth at epoch close (the
	// detector was behind or wrong), "policy" when the views agreed but the
	// daemon declined to act (cooldown, leadership, degradation, or
	// hysteresis), and "residual" otherwise (including every daemon-off
	// epoch: with no daemon there is no detection or policy to blame).
	Bucket string
}

// AdversaryRun is the full record of one scenario replay.
type AdversaryRun struct {
	Log *history.Log

	Ops, Granted           int // churn phase
	Reads, GrantedReads    int
	Writes, GrantedWrites  int
	DegradedRejects        int
	SiteEvents, LinkEvents int
	Amnesias               int // repairs that came back with wiped storage
	PartitionDrops         int64

	Epochs    []EpochStat
	OracleOps float64 // Σ Oracle·Ops over epochs (ops-weighted oracle mass)
	Regret    float64 // cumulative regret over all epochs

	// Regret decomposition: every epoch's regret lands in exactly one
	// bucket (see EpochStat.Bucket), so the three sum to Regret exactly.
	DetectRegret   float64 // epochs lost to detector lag or error
	PolicyRegret   float64 // epochs lost to daemon restraint
	ResidualRegret float64 // epochs the policy could not have improved

	// Gray-failure accounting (zero unless the scenario uses gray
	// features): modeled latencies of granted reads (RecordLatency),
	// hedging totals, and suspicion edges raised against peers the mirror
	// says were reachable.
	ReadLatencies  []int64
	HedgeProbes    int64
	HedgeWins      int64
	FalsePositives int64

	// MinorityWrites counts granted writes whose coordinator could reach at
	// most a minority of votes — a quorum-intersection violation. It must
	// be zero on every run.
	MinorityWrites int

	SettleOps, SettleGranted int
	Health                   stats.HealthCounters
	Strategy                 stats.StrategyCounters // zero unless cfg.Strategy was set
	FinalVersions            []int64
	Converged                bool
	ViolationErr             error // Log.Check() result
}

// Availability is the churn-phase grant rate.
func (r *AdversaryRun) Availability() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Granted) / float64(r.Ops)
}

// OracleAvailability is the ops-weighted mean oracle availability.
func (r *AdversaryRun) OracleAvailability() float64 {
	if r.Ops == 0 {
		return 0
	}
	return r.OracleOps / float64(r.Ops)
}

// RegretPerOp normalizes cumulative regret by the churn-phase op count.
func (r *AdversaryRun) RegretPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return r.Regret / float64(r.Ops)
}

// SettleAvailability is the post-heal grant rate.
func (r *AdversaryRun) SettleAvailability() float64 {
	if r.SettleOps == 0 {
		return 0
	}
	return float64(r.SettleGranted) / float64(r.SettleOps)
}

// String summarizes a run.
func (r *AdversaryRun) String() string {
	verdict := "1SR OK"
	if r.ViolationErr != nil {
		verdict = "VIOLATION: " + r.ViolationErr.Error()
	}
	conv := "converged"
	if !r.Converged {
		conv = "DIVERGED " + fmt.Sprint(r.FinalVersions)
	}
	return fmt.Sprintf(
		"adversary %d ops %.3f avail (oracle %.3f, regret %.1f = %.4f/op [detect %.1f, policy %.1f, residual %.1f], %d epochs, %d minority writes, %d false positives, %d partition drops, %d site / %d link events); settle %d ops %.3f avail; %s; %s",
		r.Ops, r.Availability(), r.OracleAvailability(), r.Regret, r.RegretPerOp(),
		r.DetectRegret, r.PolicyRegret, r.ResidualRegret,
		len(r.Epochs), r.MinorityWrites, r.FalsePositives, r.PartitionDrops,
		r.SiteEvents, r.LinkEvents,
		r.SettleOps, r.SettleAvailability(), conv, verdict)
}

// RunAdversary replays one scenario against rt, which must have been built
// on a fresh topology matching cfg.Sites/cfg.Links. The mirror must be a
// fresh all-up graph.State over the same topology and votes; the harness
// owns it for the duration of the run. The phases:
//
//  1. Adversity: cfg.Steps steps. Each step advances the schedule clock,
//     applies the churn (and shock) events to runtime and mirror — a
//     repair wiping the site first with probability AmnesiaFraction —
//     sweeps the daemon on schedule, then serves the schedule's batch of
//     operations (by default Poisson in the rate pattern, kinds following
//     α(t)). Every operation — including indeterminate residues — feeds
//     the history log and the epoch tally; every epochSteps steps the
//     epoch closes against the hindsight oracle.
//  2. Heal: the schedule clock jumps past the schedule horizon, every
//     site and link is repaired, nodes still amnesiac are readmitted, and
//     the daemon (when enabled) sweeps until its views recover.
//  3. Settle: Steps/10 single-op steps on the healed topology, then
//     per-node assignment versions are recorded for the convergence check.
//
// Safety (ViolationErr == nil, MinorityWrites == 0) is asserted by the
// caller; liveness and regret are reported in the returned run.
func RunAdversary(rt Runtime, mirror *graph.State, cfg AdversaryConfig) *AdversaryRun {
	cfg = cfg.normalized()
	if cfg.Daemon {
		rt.EnableSelfHealing(cfg.Health)
	}
	links := cfg.LinkFaults
	if cfg.Adaptive != nil {
		// The adversary's moves go into a copy, so replays of one config
		// stay independent of each other.
		links = links.Clone()
	}
	if links != nil {
		rt.EnableLinkFaults(links)
	}
	if cfg.Strategy != nil {
		if err := rt.InstallStrategy(*cfg.Strategy, rt.NodeAssignment(0), rt.NodeVersion(0), strategyBudget, cfg.StrategySeed); err != nil {
			panic("cluster: install scenario strategy: " + err.Error())
		}
	}
	churn := faults.NewChurn(cfg.Seed, cfg.Sites, cfg.Links, cfg.Churn)
	ops := cfg.schedule(cfg)
	var amnesia *rng.Source
	if cfg.AmnesiaFraction > 0 {
		amnesia = rng.New(cfg.Seed ^ 0xa31e)
	}
	tally := sim.NewEpochTally(mirror.TotalVotes())
	// Every valid write quorum satisfies 2·q_w > T, so a coordinator that
	// can reach at most ⌊T/2⌋ votes must never get a write granted.
	maj := mirror.TotalVotes()/2 + 1
	run := &AdversaryRun{Log: &history.Log{}}

	// truthReach is the mirror's ground truth for one (coordinator, peer)
	// pair at partition time pt: both up, same component, both message
	// directions open.
	truthReach := func(x, p int, pt int64) bool {
		if !mirror.SiteUp(x) || !mirror.SiteUp(p) || !mirror.SameComponent(x, p) {
			return false
		}
		return !links.Blocked(pt, x, p) && !links.Blocked(pt, p, x)
	}

	// reachable computes the votes a coordinator's round can actually
	// gather at partition time pt: its component members on the mirror,
	// minus peers with either message direction cut (a one-way cut loses
	// either the request or the reply, so the peer cannot contribute).
	reachable := func(x int, pt int64) int {
		if !mirror.SiteUp(x) {
			return 0
		}
		v := mirror.Votes(x)
		for p := 0; p < cfg.Sites; p++ {
			if p == x || !truthReach(x, p, pt) {
				continue
			}
			v += mirror.Votes(p)
		}
		return v
	}

	// suspView mirrors every node's suspected set as of its latest daemon
	// tick; it feeds the false-positive crosscheck, the detect-regret
	// classification, and the adaptive adversary's knowledge of whom the
	// detector already flagged.
	suspView := make([][]bool, cfg.Sites)
	for x := range suspView {
		suspView[x] = make([]bool, cfg.Sites)
	}
	daemonSweep := func(pt int64) {
		for x := 0; x < cfg.Sites; x++ {
			rep := rt.DaemonStep(x)
			row := make([]bool, cfg.Sites)
			for _, p := range rep.Suspected {
				row[p] = true
				if !suspView[x][p] && truthReach(x, p, pt) {
					// A fresh suspicion edge against a peer the mirror says
					// was reachable: the detector cried wolf (the miss-count
					// rule does this on gray slowness; φ must not).
					run.FalsePositives++
					rt.Observer().Inc(obs.CSuspicionFalsePositive)
				}
			}
			suspView[x] = row
		}
	}

	// grayRead models the latency of a granted read at x (RecordLatency):
	// the peers its round could hear from at pt, against the read quorum
	// x's copy holds less x's own votes.
	var ests *linkEstimators
	var peers []grayPeer
	if cfg.RecordLatency {
		ests = newLinkEstimators(cfg.Sites)
	}
	grayRead := func(x int, pt int64) int64 {
		peers = grayPeers(peers[:0], mirror, links, x, pt)
		need := rt.NodeAssignment(x).QR - mirror.Votes(x)
		lat, _, probes, win := ests.read(x, need, peers, cfg.Hedge, hedgeK)
		reg := rt.Observer()
		if probes > 0 {
			run.HedgeProbes += int64(probes)
			reg.Add(obs.CHedgeProbe, int64(probes))
		}
		if win {
			run.HedgeWins++
			reg.Inc(obs.CHedgeWin)
		}
		if lat >= 0 {
			reg.Observe(obs.HGrayReadSlots, lat)
		}
		return lat
	}

	value := int64(0)
	doOp := func(t float64, pt int64, settling bool) {
		site, read := ops.next(t)
		votes := reachable(site, pt)
		var out Outcome
		if read {
			out = rt.ServeRead(site)
			if cfg.RecordLatency && out.Granted {
				if lat := grayRead(site, pt); !settling && lat >= 0 {
					run.ReadLatencies = append(run.ReadLatencies, lat)
				}
			}
		} else {
			value++
			out = rt.ServeWrite(site, value)
		}
		record(run.Log, site, read, value, out, t)
		if out.Err == ErrDegradedWrites || out.Err == ErrUnavailable {
			run.DegradedRejects++
		}
		if out.Granted && !read && votes < maj {
			// A granted write from a minority component: this must never
			// happen (write quorums are strict majorities by construction).
			run.MinorityWrites++
			rt.Observer().Inc(obs.CMinorityWrite)
		}
		if settling {
			run.SettleOps++
			if out.Granted {
				run.SettleGranted++
			}
			return
		}
		tally.Record(read, votes, out.Granted)
		run.Ops++
		if read {
			run.Reads++
		} else {
			run.Writes++
		}
		if out.Granted {
			run.Granted++
			if read {
				run.GrantedReads++
			} else {
				run.GrantedWrites++
			}
		}
	}

	// Regret decomposition. prevPolicy snapshots the daemon's restraint
	// counters at the last epoch close, so each epoch sees only its own
	// skip/no-change activity.
	prevPolicy := int64(0)
	policyOf := func(h stats.HealthCounters) int64 {
		return h.CooldownSkips + h.NotLeaderSkips + h.DegradedSkips + h.DaemonNoChanges
	}
	closeEpoch := func(step int, pt int64) {
		ops := tally.Ops()
		if ops == 0 {
			return
		}
		oracle, qr := tally.OracleAvailability()
		grant := tally.GrantRate()
		regret := (oracle - grant) * float64(ops)
		bucket := "residual"
		if cfg.Daemon {
			// Detection bucket: some up node's suspicion view contradicts
			// the mirror truth at epoch close — it suspects a reachable
			// peer, or has not yet suspected an unreachable one.
			detect := false
			for x := 0; x < cfg.Sites && !detect; x++ {
				if !mirror.SiteUp(x) {
					continue
				}
				for p := 0; p < cfg.Sites; p++ {
					if p == x {
						continue
					}
					if suspView[x][p] == truthReach(x, p, pt) {
						detect = true
						break
					}
				}
			}
			policy := policyOf(rt.HealthCounters())
			switch {
			case detect:
				bucket = "detect"
			case policy > prevPolicy:
				bucket = "policy"
			}
			prevPolicy = policy
		}
		switch bucket {
		case "detect":
			run.DetectRegret += regret
		case "policy":
			run.PolicyRegret += regret
		default:
			run.ResidualRegret += regret
		}
		run.Epochs = append(run.Epochs, EpochStat{
			Step: step, Ops: ops, Alpha: tally.Alpha(),
			GrantRate: grant, Oracle: oracle, OracleQR: qr, Regret: regret,
			Bucket: bucket,
		})
		run.OracleOps += oracle * float64(ops)
		run.Regret += regret
		tally.Reset()
	}

	// Phase 1: adversity.
	downSites := make([]bool, cfg.Sites)
	for step := 0; step < cfg.Steps; step++ {
		t := float64(step)
		pt := int64(step)
		rt.SetPartitionTime(pt)
		if cfg.Adaptive != nil {
			// The adversary moves first each step, armed with exactly the
			// public state: the newest installed assignment, the sites'
			// votes, and which sites the detector already flagged.
			best := 0
			for x := 1; x < cfg.Sites; x++ {
				if rt.NodeVersion(x) > rt.NodeVersion(best) {
					best = x
				}
			}
			view := faults.AdversaryView{
				Step:      pt,
				Votes:     make([]int, cfg.Sites),
				Suspected: make([]bool, cfg.Sites),
			}
			asn := rt.NodeAssignment(best)
			view.QR, view.QW = asn.QR, asn.QW
			for p := 0; p < cfg.Sites; p++ {
				view.Votes[p] = mirror.Votes(p)
				for x := 0; x < cfg.Sites && !view.Suspected[p]; x++ {
					if x != p && mirror.SiteUp(x) && suspView[x][p] {
						view.Suspected[p] = true
					}
				}
			}
			for _, act := range cfg.Adaptive.Advise(view) {
				links.Apply(act, cfg.Sites)
			}
		}
		for _, ev := range churn.Step(t) {
			switch ev.Kind {
			case faults.SiteFail:
				rt.FailSite(ev.Index)
				mirror.FailSite(ev.Index)
				downSites[ev.Index] = true
				run.SiteEvents++
			case faults.SiteRepair:
				if amnesia != nil && amnesia.Float64() < cfg.AmnesiaFraction {
					// The machine came back blank: wipe before the repair so
					// the node rejoins by state transfer, never with stale
					// (here: vanished) state.
					rt.WipeState(ev.Index)
					run.Amnesias++
				}
				rt.RepairSite(ev.Index)
				mirror.RepairSite(ev.Index)
				downSites[ev.Index] = false
				run.SiteEvents++
			case faults.LinkFail:
				rt.FailLink(ev.Index)
				mirror.FailLink(ev.Index)
				run.LinkEvents++
			case faults.LinkRepair:
				rt.RepairLink(ev.Index)
				mirror.RepairLink(ev.Index)
				run.LinkEvents++
			}
		}
		if cfg.Daemon && step%daemonEvery == 0 {
			daemonSweep(pt)
		}
		for n := ops.batch(t); n > 0; n-- {
			doOp(t, pt, false)
		}
		if (step+1)%epochSteps == 0 {
			closeEpoch(step+1, pt)
		}
	}
	// Flush a partial trailing epoch (no-op when empty).
	closeEpoch(cfg.Steps, int64(cfg.Steps)-1)

	// Phase 2: heal. Jump the schedule clock past the horizon so every cut
	// and slowdown is lifted, then repair everything churn took down.
	healT := max(int64(cfg.Steps), links.Horizon())
	rt.SetPartitionTime(healT)
	for i, down := range downSites {
		if down {
			rt.RepairSite(i)
			mirror.RepairSite(i)
		}
	}
	for l := 0; l < cfg.Links; l++ {
		rt.RepairLink(l)
		mirror.RepairLink(l)
	}
	// Readmit any node still amnesiac: with the topology healed a write
	// quorum of full members is reachable, so each node needs at most one
	// successful transfer; the bounded passes cover transfers racing the
	// fault plan. Without amnesia every call is trivially true.
	for pass := 0; pass <= cfg.Sites; pass++ {
		all := true
		for x := 0; x < cfg.Sites; x++ {
			if !rt.TryRejoin(x) {
				all = false
			}
		}
		if all {
			break
		}
	}
	if cfg.Daemon {
		// Sweep until every view is back to healthy — bounded by the number
		// of sweeps it takes to unsuspect (suspectAfter misses to suspect,
		// one ack to clear) plus the cooldown before the convergence
		// reassign/sync may run.
		for s := 0; s < suspectAfter+cooldownTicks+4; s++ {
			daemonSweep(healT)
		}
	}

	// Phase 3: settle.
	for s := 0; s < max(cfg.Steps/10, 1); s++ {
		t := float64(cfg.Steps + s)
		if cfg.Daemon && (cfg.Steps+s)%daemonEvery == 0 {
			daemonSweep(healT)
		}
		doOp(t, healT, true)
	}

	run.PartitionDrops = rt.PartitionDrops()
	run.FinalVersions = make([]int64, cfg.Sites)
	run.Converged = true
	for x := 0; x < cfg.Sites; x++ {
		run.FinalVersions[x] = rt.NodeVersion(x)
		if run.FinalVersions[x] != run.FinalVersions[0] {
			run.Converged = false
		}
	}
	run.Health = rt.HealthCounters()
	if cfg.Strategy != nil {
		run.Strategy = rt.StrategyCounters()
	}
	run.ViolationErr = run.Log.Check()
	return run
}
