package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/stats"
)

// This file closes the loop from failure detection to quorum reassignment
// that the paper's §5 protocol leaves to an operator: a heartbeat-based
// failure detector feeds each node's view of its component, an adaptive
// daemon re-runs the §4.2 on-line estimator and the Figure-1 optimizer when
// that view shifts, and a degradation gate keeps the serving surface
// non-blocking when no quorum is reachable. Heartbeat rounds and optimizer
// gossip travel through the runtime's transport, so an attached fault plan
// or partition schedule faults them like any other traffic.
//
// Failure detector. Node x periodically broadcasts a heartbeat; every peer
// that can be reached answers with its votes and assignment version. Two
// detectors are available (HealthConfig.Detector):
//
//   - DetectorMissCount (the compatibility mode, and the default): a peer
//     that misses SuspectAfter consecutive probes is *suspected*; an
//     answer unsuspects it. Under gray failures this rule misclassifies:
//     an ack slower than missDeadline delivery slots is treated as a miss
//     (counted in LateAcks), so a merely slow peer looks dead.
//
//   - DetectorPhi: a φ-accrual detector (stats.PhiEstimator). Every ack's
//     round-trip latency feeds a per-peer sliding window; on silence the
//     detector computes φ = −log10 P(still alive given this much quiet)
//     under the windowed fit and suspects at phiThreshold. An answering
//     peer is never suspected, however slow — slow and dead are different
//     verdicts, which is exactly the distinction gray failures demand.
//     Until the window holds enough samples the miss-count rule is the
//     bootstrap fallback.
//
// The detector is purely local: it learns only from messages (and the pure
// latency schedule that stretches them), never from the shared topology
// state, so its view can be wrong in exactly the ways a real deployment's
// can.
//
// Adaptive daemon. Each detector tick doubles as a quorum probe: the acked
// votes plus the node's own bound the votes reachable right now. From that
// the daemon runs a small state machine per node:
//
//	healthy ──suspicion change or grant-rate drop──▶ triggered
//	triggered ──cooldown expired, leader, write quorum reachable──▶ optimize
//	optimize ──ReassignOptimal installs / keeps incumbent──▶ healthy (cooldown)
//
// Anti-flap controls: suspicion triggers are edge-triggered (a *change* in
// the suspected set, not its size), the optimizer's hysteresis demands a
// minimum predicted improvement before installing, a cooldown rate-limits
// attempts, and the grant-rate window resets after every attempt so the
// daemon judges the new assignment on fresh evidence. Only the smallest-id
// unsuspected member of a component attempts reassignment ("leader" below),
// so partitioned components heal independently without dueling optimizers;
// the QR protocol's version numbers keep even dueling attempts safe.
//
// Graceful degradation. When the probe shows fewer reachable votes than the
// write quorum the node downgrades to read-only service; below the read
// quorum it is unavailable. Operations submitted through ServeRead /
// ServeWrite fail fast with typed errors instead of running (and retrying)
// a round the probe already proved futile — degraded operations never hang.
// The next probe that sees a quorum again heals the mode automatically.

// Typed degradation errors.
var (
	// ErrDegradedWrites: the coordinator's component holds a read quorum
	// but not a write quorum; the node serves reads only.
	ErrDegradedWrites = errors.New("cluster: degraded: no write quorum reachable, serving reads only")
	// ErrUnavailable: not even a read quorum is reachable.
	ErrUnavailable = errors.New("cluster: unavailable: no read quorum reachable")
)

// Mode is a node's current service level, derived from its latest quorum
// probe.
type Mode uint8

// Service levels.
const (
	ModeHealthy     Mode = iota // read and write quorums reachable
	ModeReadOnly                // read quorum only
	ModeWriteOnly               // write quorum only (degenerate assignments)
	ModeUnavailable             // neither quorum reachable
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeHealthy:
		return "healthy"
	case ModeReadOnly:
		return "read-only"
	case ModeWriteOnly:
		return "write-only"
	case ModeUnavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// DetectorKind selects the failure-detection rule.
type DetectorKind uint8

// Detector kinds. The zero value is the PR-2 miss-count rule, so existing
// configurations are unchanged.
const (
	DetectorMissCount DetectorKind = iota
	DetectorPhi
)

// String implements fmt.Stringer.
func (d DetectorKind) String() string {
	switch d {
	case DetectorMissCount:
		return "miss-count"
	case DetectorPhi:
		return "phi-accrual"
	default:
		return fmt.Sprintf("DetectorKind(%d)", uint8(d))
	}
}

// The detector's fixed tuning.
const (
	// missDeadline is the miss-count mode's latency budget in delivery
	// slots: an ack slower than this counts as a miss. It is comfortably
	// above the fault-free round trip (2), so schedules without gray
	// latency never trip it.
	missDeadline = 8
	// phiThreshold is the φ suspicion threshold: suspect when the odds the
	// peer is alive drop below 1 in 10⁸.
	phiThreshold = 8
	// phiWindow is the per-peer latency window size (φ mode).
	phiWindow = 16
	// grantRateFloor triggers the daemon when the windowed grant rate drops
	// below it (only once the window is full).
	grantRateFloor = 0.75
)

// HealthConfig tunes the failure detector and the adaptive daemon.
type HealthConfig struct {
	// Detector selects the suspicion rule (default: miss count).
	Detector DetectorKind
	// SuspectAfter is the number of consecutive missed heartbeats before a
	// peer is suspected (miss-count mode, and the φ bootstrap fallback).
	SuspectAfter int
	// WindowSize is the per-node sliding window of operation outcomes that
	// feeds the grant-rate trigger (grantRateFloor).
	WindowSize int
	// CooldownTicks is the minimum number of daemon ticks between two
	// reassignment attempts at the same node (the rate limiter).
	CooldownTicks int64
	// Alpha is the read fraction handed to the optimizer (paper's α).
	Alpha float64
	// MinWrite is the optional §5.4 write-availability floor (0 disables).
	MinWrite float64
	// Hysteresis is the minimum predicted availability improvement before a
	// new assignment is installed (anti-flap).
	Hysteresis float64
	// Strategy, when enabled, makes every daemon reassignment attempt
	// re-solve the installed randomized quorum strategy restricted to the
	// surviving sites (see strategy.go).
	Strategy StrategyResolveConfig
}

// DefaultHealthConfig mirrors conservative production defaults: suspect
// after two misses, judge grant rate over 32 operations with a 75% floor,
// at most one reassignment attempt per four ticks, and demand a predicted
// improvement of at least one availability point.
func DefaultHealthConfig() HealthConfig {
	return HealthConfig{
		SuspectAfter:  2,
		WindowSize:    32,
		CooldownTicks: 4,
		Alpha:         0.75,
		Hysteresis:    0.01,
	}
}

// normalize fills zero fields with defaults so a partially specified config
// behaves sanely.
func (cfg HealthConfig) normalize() HealthConfig {
	d := DefaultHealthConfig()
	if cfg.SuspectAfter < 1 {
		cfg.SuspectAfter = d.SuspectAfter
	}
	if cfg.WindowSize < 1 {
		cfg.WindowSize = d.WindowSize
	}
	if cfg.CooldownTicks < 1 {
		cfg.CooldownTicks = d.CooldownTicks
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = d.Alpha
	}
	if cfg.Hysteresis <= 0 {
		cfg.Hysteresis = d.Hysteresis
	}
	cfg.Strategy = cfg.Strategy.normalize(cfg.Alpha)
	return cfg
}

// healthView is one node's local detector and service state.
type healthView struct {
	misses      []int
	suspected   []bool
	peerVersion []int64 // last assignment version heard per peer; -1 unknown

	// phi holds the per-peer φ-accrual latency estimators (φ mode only;
	// allocated lazily on first contact with each peer).
	phi []*stats.PhiEstimator

	mode     Mode
	canRead  bool
	canWrite bool

	window  []bool // ring buffer of recent operation grants
	winNext int
	winFill int

	hbSeq        int64
	tick         int64
	suspectEpoch int64 // bumped whenever the suspected set changes
	attemptEpoch int64 // suspectEpoch consumed by the last reassign attempt
	nextAllowed  int64 // earliest tick the next attempt may run (cooldown)
}

// healthState is the self-healing context shared by the views of all nodes
// of one runtime. The mutex makes snapshots and mutations safe against a
// concurrent daemon goroutine (the Async runtime); the deterministic
// runtime takes it uncontended.
type healthState struct {
	cfg HealthConfig

	mu       sync.Mutex
	views    []*healthView
	counters stats.HealthCounters

	// acked and ackRTT are applyAcks' per-peer scratch (under mu).
	acked  []bool
	ackRTT []int64

	// obs mirrors the owning runtime's registry (nil when off); detector
	// edges, mode transitions, and daemon verdicts are reported through it.
	obs *obs.Registry
}

func newHealthState(cfg HealthConfig, n int) *healthState {
	h := &healthState{cfg: cfg.normalize(), views: make([]*healthView, n),
		acked: make([]bool, n), ackRTT: make([]int64, n)}
	for i := range h.views {
		v := &healthView{
			misses:      make([]int, n),
			suspected:   make([]bool, n),
			peerVersion: make([]int64, n),
			window:      make([]bool, h.cfg.WindowSize),
			mode:        ModeHealthy,
			canRead:     true,
			canWrite:    true,
		}
		for p := range v.peerVersion {
			v.peerVersion[p] = -1
		}
		h.views[i] = v
	}
	return h
}

// DaemonReport describes one daemon step at one node.
type DaemonReport struct {
	Node           int
	Mode           Mode
	ReachableVotes int
	Suspected      []int // peers suspected after this tick
	Triggered      bool  // a trigger condition held
	Attempted      bool  // an optimizer run was started
	Reassigned     bool  // a new assignment was installed
	Synced         bool  // a version-divergence repair round was issued
	Err            error
}

// recordGrant feeds one operation outcome into node x's grant window.
func (h *healthState) recordGrant(x int, granted bool) {
	h.mu.Lock()
	v := h.views[x]
	v.window[v.winNext] = granted
	v.winNext = (v.winNext + 1) % len(v.window)
	if v.winFill < len(v.window) {
		v.winFill++
	}
	h.mu.Unlock()
}

// grantRate returns the windowed grant rate and whether the window is full.
func (v *healthView) grantRate() (float64, bool) {
	if v.winFill < len(v.window) {
		return 1, false
	}
	granted := 0
	for _, g := range v.window {
		if g {
			granted++
		}
	}
	return float64(granted) / float64(len(v.window)), true
}

// lateAck reports whether an ack with the given round-trip latency is past
// the miss-count deadline and must be misread as a miss (the deliberate
// gray-failure misclassification of the compatibility detector). Always
// false in φ mode: slow is not dead.
func (h *healthState) lateAck(rtt int64) bool {
	return h.cfg.Detector == DetectorMissCount && rtt > missDeadline
}

// phiOf returns node x's φ estimator for peer p, allocating it lazily.
func (v *healthView) phiOf(p, window int) *stats.PhiEstimator {
	if v.phi == nil {
		v.phi = make([]*stats.PhiEstimator, len(v.misses))
	}
	if v.phi[p] == nil {
		v.phi[p] = stats.NewPhiEstimator(window)
	}
	return v.phi[p]
}

// applyAcks runs the detector update for node x from one heartbeat round:
// acked peers reset their miss counts (and unsuspect), silent peers accrue
// misses, and the service mode is recomputed from the reachable votes.
// rtts[i] is the round trip of acks[i] in delivery slots (nil: the
// fault-free baseline for every ack). In miss-count mode an ack past
// missDeadline is dropped here — a miss that contributes no votes; in φ
// mode every ack feeds the peer's latency window and silence is judged by
// φ against the windowed fit. Returns the probe's reachable-vote bound and
// whether the suspected set changed. Callers hold h.mu.
func (h *healthState) applyAcks(x int, acks []msg, rtts []int64, assign quorum.Assignment, selfVotes int) (reachable int, changed bool) {
	v := h.views[x]
	n := len(h.views)
	acked, ackRTT := h.acked, h.ackRTT
	clear(acked)
	reachable = selfVotes
	for i := range acks {
		a := &acks[i]
		if a.from < 0 || int(a.from) >= n || int(a.from) == x {
			continue
		}
		rtt := int64(grayBaseRTT)
		if rtts != nil {
			rtt = rtts[i]
		}
		if h.lateAck(rtt) {
			h.counters.LateAcks++
			h.obs.Inc(obs.CLateAck)
			continue // misread as silence: miss accrues, votes lost
		}
		acked[a.from] = true
		ackRTT[a.from] = rtt
		reachable += int(a.votes)
		v.peerVersion[a.from] = a.version
	}
	h.counters.HeartbeatsSent += int64(n - 1)
	phiMode := h.cfg.Detector == DetectorPhi
	for p := 0; p < n; p++ {
		if p == x {
			continue
		}
		if acked[p] {
			h.counters.HeartbeatAcks++
			v.misses[p] = 0
			if phiMode {
				est := v.phiOf(p, phiWindow)
				if est.Ready() {
					h.obs.Observe(obs.HPhi, int64(est.Phi(float64(ackRTT[p]))*100))
				}
				est.Observe(float64(ackRTT[p]))
			}
			if v.suspected[p] {
				v.suspected[p] = false
				h.counters.Unsuspicions++
				changed = true
				h.obs.Inc(obs.CUnsuspect)
				h.obs.AddGauge(obs.GSuspectedPeers, -1)
				h.obs.Emit(obs.EvUnsuspect, int32(x), int32(p), 0, 0)
			}
			continue
		}
		v.misses[p]++
		suspect := false
		if phiMode && v.phi != nil && v.phi[p] != nil && v.phi[p].Ready() {
			// Judge the silence by the peer's own latency regime: the
			// elapsed quiet is misses heartbeat intervals, each at least
			// one windowed-mean round trip.
			mean, _ := v.phi[p].Stats()
			elapsed := float64(v.misses[p]) * math.Max(mean, grayBaseRTT)
			phi := v.phi[p].Phi(elapsed)
			h.obs.Observe(obs.HPhi, int64(phi*100))
			suspect = phi >= phiThreshold
		} else {
			// Miss-count rule: directly, or as the φ bootstrap fallback
			// before the window has enough samples.
			suspect = v.misses[p] >= h.cfg.SuspectAfter
		}
		if !v.suspected[p] && suspect {
			v.suspected[p] = true
			h.counters.Suspicions++
			changed = true
			h.obs.Inc(obs.CSuspect)
			h.obs.AddGauge(obs.GSuspectedPeers, 1)
			h.obs.Emit(obs.EvSuspect, int32(x), int32(p), int64(v.misses[p]), 0)
		}
	}
	if changed {
		v.suspectEpoch++
	}

	canRead := reachable >= assign.QR
	canWrite := reachable >= assign.QW
	mode := ModeHealthy
	switch {
	case canRead && canWrite:
		mode = ModeHealthy
	case canRead:
		mode = ModeReadOnly
	case canWrite:
		mode = ModeWriteOnly
	default:
		mode = ModeUnavailable
	}
	if mode != v.mode {
		if mode == ModeHealthy {
			h.counters.Healings++
			h.obs.Inc(obs.CHeal)
			h.obs.AddGauge(obs.GDegradedNodes, -1)
		} else if v.mode == ModeHealthy {
			h.counters.Degradations++
			h.obs.Inc(obs.CDegrade)
			h.obs.AddGauge(obs.GDegradedNodes, 1)
		}
		h.obs.Emit(obs.EvModeChange, int32(x), -1, int64(v.mode), int64(mode))
		v.mode = mode
	}
	v.canRead, v.canWrite = canRead, canWrite
	return reachable, changed
}

// daemonDecide runs the daemon state machine for node x after a heartbeat
// round, performing the optimize/install and sync rounds it decides on.
func (k *coordinator) daemonDecide(x int, acks []msg, rtts []int64, assign quorum.Assignment, selfVotes int, version int64) DaemonReport {
	h := k.health
	h.mu.Lock()
	v := h.views[x]
	v.tick++
	h.counters.DaemonTicks++
	reachable, _ := h.applyAcks(x, acks, rtts, assign, selfVotes)

	rep := DaemonReport{Node: x, Mode: v.mode, ReachableVotes: reachable}
	for p, s := range v.suspected {
		if s {
			rep.Suspected = append(rep.Suspected, p)
		}
	}

	// A peer that answered with an older assignment version has missed an
	// installation (it was partitioned away or freshly recovered). One
	// ordinary vote-collection round pushes the merged state — newest
	// version included — back to every reachable member, which is what
	// drives post-churn convergence even when the optimizer has nothing
	// to change.
	staleVersion := false
	for p, ver := range v.peerVersion {
		if p != x && !v.suspected[p] && ver >= 0 && ver < version {
			staleVersion = true
			break
		}
	}

	// Trigger conditions: an edge on the suspected set, or a sustained
	// grant-rate drop.
	trigger := v.suspectEpoch != v.attemptEpoch
	if rate, full := v.grantRate(); full && rate < grantRateFloor {
		trigger = true
	}
	rep.Triggered = trigger

	if !trigger {
		h.mu.Unlock()
		if staleVersion {
			h.mu.Lock()
			h.counters.SyncRounds++
			h.mu.Unlock()
			h.obs.Inc(obs.CSyncRound)
			k.syncRound(x)
			rep.Synced = true
		}
		return rep
	}
	h.counters.DaemonTriggers++

	// Rate limiter.
	if v.tick < v.nextAllowed {
		h.counters.CooldownSkips++
		h.mu.Unlock()
		return rep
	}
	// Leader gate: defer to an unsuspected member with a smaller id. The
	// trigger stays pending, so leadership changes re-arm it.
	for p := 0; p < x; p++ {
		if !v.suspected[p] {
			h.counters.NotLeaderSkips++
			h.mu.Unlock()
			return rep
		}
	}
	// No reachable write quorum: the QR protocol cannot install anything
	// from this component. Leave the trigger pending; healing will both
	// change the suspected set and lift the gate.
	if !v.canWrite {
		h.counters.DegradedSkips++
		h.mu.Unlock()
		return rep
	}

	v.attemptEpoch = v.suspectEpoch
	v.nextAllowed = v.tick + h.cfg.CooldownTicks
	// Judge the next assignment on fresh evidence.
	v.winFill, v.winNext = 0, 0
	cfg := h.cfg
	h.mu.Unlock()

	rep.Attempted = true
	changed, err := k.reassignOptimal(x, cfg.Alpha, cfg.MinWrite, cfg.Hysteresis)
	rep.Reassigned, rep.Err = changed, err

	h.mu.Lock()
	switch {
	case err != nil:
		h.counters.DaemonErrors++
	case changed:
		h.counters.DaemonReassigns++
		h.obs.Inc(obs.CDaemonReassign)
	default:
		h.counters.DaemonNoChanges++
	}
	h.mu.Unlock()
	if err == nil && h.cfg.Strategy.Enabled {
		// Availability-aware re-solve: the attempt above settled the
		// assignment in force (installed or kept); restrict the strategy LP
		// to the survivors and install only a certified result. Runs whether
		// or not the assignment changed — the suspicion edge that triggered
		// the attempt is exactly the signal the strategy must re-price.
		k.strategyResolve(x, rep.Suspected)
	}
	if !changed && err == nil && staleVersion {
		// The optimizer kept the incumbent without a full install round;
		// still repair the observed version divergence.
		h.mu.Lock()
		h.counters.SyncRounds++
		h.mu.Unlock()
		h.obs.Inc(obs.CSyncRound)
		k.syncRound(x)
		rep.Synced = true
	}
	return rep
}

// gate checks the degradation gate for one operation kind at node x,
// returning a typed error when the node's probe-derived mode rejects it
// (nil when healthy or when self-healing is disabled).
func (h *healthState) gate(x int, write bool) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	v := h.views[x]
	if write {
		if !v.canWrite {
			h.counters.DegradedWrites++
			h.obs.Inc(obs.CDegradedReject)
			if !v.canRead {
				return ErrUnavailable
			}
			return ErrDegradedWrites
		}
		return nil
	}
	if !v.canRead {
		h.counters.DegradedReads++
		h.obs.Inc(obs.CDegradedReject)
		return ErrUnavailable
	}
	return nil
}

// snapshot returns a copy of the counters.
func (h *healthState) snapshot() stats.HealthCounters {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.counters
}

// modeOf returns node x's current service mode.
func (h *healthState) modeOf(x int) Mode {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.views[x].mode
}

// EnableSelfHealing attaches the failure detector, adaptive reassignment
// daemon, and degradation gate.
func (k *coordinator) EnableSelfHealing(cfg HealthConfig) {
	k.health = newHealthState(cfg, len(k.all))
	k.health.obs = k.obs
}

// HealthCounters returns a snapshot of the self-healing counters.
func (k *coordinator) HealthCounters() stats.HealthCounters {
	if k.health == nil {
		return stats.HealthCounters{}
	}
	return k.health.snapshot()
}

// Mode returns node x's current service mode (ModeHealthy when self-healing
// is disabled).
func (k *coordinator) Mode(x int) Mode {
	if k.health == nil {
		return ModeHealthy
	}
	return k.health.modeOf(x)
}

// heartbeatRound broadcasts one probe from node x and gathers the
// deduplicated acknowledgements of the current sequence number, along with
// each ack's round-trip latency in delivery slots. The detector judges an
// ack by the gray schedule's round trip (the fault-free 2 when none is
// attached) — the same pure function on both runtimes — rather than a
// wall-clock measurement the scheduler could perturb.
func (k *coordinator) heartbeatRound(x int) ([]msg, []int64) {
	h := k.health
	h.mu.Lock()
	h.views[x].hbSeq++
	seq := h.views[x].hbSeq
	h.mu.Unlock()
	replies, _ := k.tr.exchange(x, k.all, msg{tag: tagHeartbeat, from: int32(x), seq: seq})
	k.seen.reset(len(k.all))
	k.rtts = k.rtts[:0]
	for i := range replies {
		a := &replies[i]
		if a.seq != seq || !k.seen.add(a.from) {
			continue // stale or duplicated ack
		}
		if n := len(k.rtts); n != i {
			replies[n] = *a // kept acks are compacted in place
		}
		k.rtts = append(k.rtts, k.rtt(x, int(a.from)))
	}
	return replies[:len(k.rtts)], k.rtts
}

// syncRound is one ordinary vote-collection round, whose merged-state push
// refreshes every reachable member.
func (k *coordinator) syncRound(x int) {
	if k.tr.siteUp(x) {
		k.collect(x, OpRead, false)
	}
}

// DaemonStep runs one failure-detector tick and daemon decision at node x:
// probe, update suspicions and service mode, and — when triggered, allowed
// by the rate limiter, leading its component, and holding a write quorum —
// run the on-line estimator and optimizer and install the result through
// the QR protocol. Requires EnableSelfHealing.
func (k *coordinator) DaemonStep(x int) DaemonReport {
	h := k.mustHealth()
	up := k.tr.siteUp(x)
	if k.Amnesiac(x) {
		// The daemon doubles as the rejoin retry loop: each tick at an
		// amnesiac node attempts the state transfer before anything else.
		if !up || !k.tryRejoin(x) {
			return DaemonReport{Node: x, Err: ErrAmnesiac}
		}
	}
	// A down node cannot probe; its detector accrues misses for every peer
	// so that, on recovery, it re-learns the world before acting. The §4.2
	// estimator counts down time as a component of zero votes.
	var acks []msg
	var rtts []int64
	reach := 0
	if up {
		acks, rtts = k.heartbeatRound(x)
		// Each probe is a free, unbiased periodic sample of the component's
		// vote total — exactly the §4.2 recording the paper prescribes. The
		// samples taken during ordinary collect rounds over-weight large
		// components (a site in a component of size k responds to ~k rounds
		// per step), which skews the optimizer toward large quorums; the
		// detector's fixed-rate samples correct that bias. The sample is the
		// *belief*, not the truth: in miss-count mode a late ack's votes are
		// excluded here exactly as the detector excludes them, so the
		// estimator and the detector misjudge gray slowness consistently.
		reach = k.st.Votes(x)
		for i := range acks {
			if !h.lateAck(rtts[i]) {
				reach += int(acks[i].votes)
			}
		}
	}
	self := k.tr.lock(x)
	self.observe(reach)
	votes, s := self.votes, self.copyState
	k.tr.unlock(x)
	return k.daemonDecide(x, acks, rtts, s.assign, votes, s.version)
}

// serve is the serving-layer ladder shared by reads and writes at node x:
// fail fast with a typed error when the coordinator is down, amnesiac, or
// rejected by the degradation gate; serve off a sampled quorum when a
// strategy is installed; otherwise run the fault-hardened operation when a
// fault plan is attached or the baseline one when not. The outcome feeds
// the daemon's grant-rate window.
func (k *coordinator) serve(x int, write bool, value int64) Outcome {
	if !k.tr.siteUp(x) {
		return Outcome{Err: ErrCoordinatorDown}
	}
	if k.Amnesiac(x) && !k.tryRejoin(x) {
		return Outcome{Err: ErrAmnesiac}
	}
	if k.health != nil {
		if err := k.health.gate(x, write); err != nil {
			k.health.recordGrant(x, false)
			return Outcome{Err: err}
		}
	}
	out, served := Outcome{}, false
	if k.strat != nil && k.chaos == nil {
		// When the sampled path cannot grant (stale strategy or resample
		// budget exhausted) the component-wide round below is the
		// authoritative answer.
		out, served = k.strategyServe(x, write, value)
	}
	switch {
	case served:
	case k.chaos == nil:
		out = Outcome{Value: value, Attempts: 1}
		if write {
			out.Stamp, out.Granted = k.writeOp(x, value)
		} else {
			out.Value, out.Stamp, out.Granted = k.Read(x)
		}
		if !out.Granted {
			out.Err = ErrNoQuorum
		}
	case write:
		out = k.ChaosWrite(x, value)
	default:
		out = k.ChaosRead(x)
	}
	if k.health != nil {
		k.health.recordGrant(x, out.Granted)
	}
	return out
}

// ServeRead is the serving-layer read at node x (see serve).
func (k *coordinator) ServeRead(x int) Outcome { return k.serve(x, false, 0) }

// ServeWrite is the serving-layer write at node x: a read-only or
// unavailable node rejects the write immediately with ErrDegradedWrites or
// ErrUnavailable rather than running a doomed round.
func (k *coordinator) ServeWrite(x int, value int64) Outcome { return k.serve(x, true, value) }

// mustHealth asserts that EnableSelfHealing was called.
func (k *coordinator) mustHealth() *healthState {
	if k.health == nil {
		panic("cluster: self-healing operation without EnableSelfHealing")
	}
	return k.health
}
