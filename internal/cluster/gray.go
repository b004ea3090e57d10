package cluster

import (
	"math"
	"sort"

	"quorumkit/internal/obs"
	"quorumkit/internal/stats"
)

// Gray-failure layer: the slowdown rules of the runtime's
// faults.LinkSchedule (links.go) stretch message round trips without
// dropping anything, and a hedged read path spends extra probes to route
// around the slowness.
//
// Enforcement differs by transport on purpose. The concurrent Async adds
// the schedule's delay slots to real deliveries (heartbeat probes sleep
// through them like any chaos delay), so gray slowness is experienced end to
// end. The deterministic Cluster keeps its synchronous drain untouched — folding
// delays into the drain order would perturb delivery interleavings and
// break the delay-only metamorphic guarantee (a schedule with no drops must
// leave the final states byte-identical) — and instead reports each ack's
// round trip analytically from the same pure schedule. Both runtimes
// therefore feed their detectors identical latency observations for
// identical schedules, which is what the detector comparison needs.
//
// Hedged reads are modeled the same way: the coordinator's minimal quorum
// is ordered by each peer's learned latency profile, every primary gets a
// budget of mean + K·sigma slots, and a primary that overruns its budget
// triggers a backup probe to the next-fastest spare site. First q_r vote
// arrivals win. Hedging reuses the ordinary vote-collection messages and
// the existing timestamps for idempotence — no new wire-visible message
// types — so the model only decides *which* sites are asked and *when* the
// round would have completed, never what the round returns.

// grayBaseRTT is the fault-free heartbeat round trip in delivery slots
// (one slot per direction).
const grayBaseRTT = 2

// grayEstWindow is the sliding-window size of the per-link latency
// estimators that drive hedged-read routing and budgets.
const grayEstWindow = 16

// grayState is one runtime's hedged-read configuration, the per-link
// latency estimators that drive it, and its totals. The estimators and
// totals belong to the operation slot (DESIGN §18); the configuration is set
// before serving.
type grayState struct {
	hedge  bool
	hedgeK float64
	n      int
	est    []*stats.PhiEstimator // per (coordinator, peer) link, x*n+p, lazy
	probes int64
	wins   int64
}

// estOf returns the link estimator for coordinator x observing peer p,
// allocating it lazily.
func (g *grayState) estOf(x, p int) *stats.PhiEstimator {
	if g.est == nil { // n² slots, so only a runtime that serves gray reads pays for them
		g.est = make([]*stats.PhiEstimator, g.n*g.n)
	}
	i := x*g.n + p
	if g.est[i] == nil {
		g.est[i] = stats.NewPhiEstimator(grayEstWindow)
	}
	return g.est[i]
}

// GrayReadStats describes the modeled latency of one gray read.
type GrayReadStats struct {
	// Latency is the modeled completion time of the round in delivery
	// slots under the active hedging configuration (-1 when the round was
	// not granted, so no completion exists to model).
	Latency int64
	// Unhedged is what the same round would have cost without backup
	// probes; Latency == Unhedged when hedging is off.
	Unhedged int64
	// Probes is the number of backup probes the hedge issued.
	Probes int
	// Win reports whether hedging strictly beat the unhedged completion.
	Win bool
}

// grayPeer is one candidate responder in the hedge model.
type grayPeer struct {
	id    int
	votes int
	rtt   int64   // actual modeled round trip this step
	mean  float64 // estimator's predicted round trip
	sigma float64
}

// hedgeModel computes when a read round collecting need votes completes,
// unhedged and hedged. Peers must be alive candidates; the model sends the
// minimal prefix (by predicted latency) covering need as primaries, gives
// each primary a budget of ceil(mean + k·sigma) slots, and on overrun
// probes the next spare. Returns (-1, -1, 0, false) when the candidates
// cannot cover need at all.
func hedgeModel(need int, peers []grayPeer, hedge bool, k float64) (latency, unhedged int64, probes int, win bool) {
	if need <= 0 {
		return 0, 0, 0, false
	}
	sort.Slice(peers, func(i, j int) bool {
		if peers[i].mean != peers[j].mean {
			return peers[i].mean < peers[j].mean
		}
		return peers[i].id < peers[j].id
	})
	primaries := 0
	votes := 0
	for primaries < len(peers) && votes < need {
		votes += peers[primaries].votes
		primaries++
	}
	if votes < need {
		return -1, -1, 0, false
	}

	// completion is the earliest time the arrival events accumulate need
	// votes.
	completion := func(arrivals []grayPeer) int64 {
		sort.Slice(arrivals, func(i, j int) bool {
			if arrivals[i].rtt != arrivals[j].rtt {
				return arrivals[i].rtt < arrivals[j].rtt
			}
			return arrivals[i].id < arrivals[j].id
		})
		got := 0
		for _, a := range arrivals {
			got += a.votes
			if got >= need {
				return a.rtt
			}
		}
		return -1
	}

	prim := make([]grayPeer, primaries)
	copy(prim, peers[:primaries])
	unhedged = completion(prim)
	if !hedge {
		return unhedged, unhedged, 0, false
	}

	// Hedged run: overdue primaries trigger probes to unused spares, in
	// budget-expiry order so the fastest spare backs the first overrun.
	type overrun struct {
		budget int64
		id     int
	}
	var overruns []overrun
	arrivals := make([]grayPeer, 0, len(peers))
	arrivals = append(arrivals, peers[:primaries]...)
	for _, p := range peers[:primaries] {
		budget := int64(math.Ceil(p.mean + k*p.sigma))
		if budget < grayBaseRTT {
			budget = grayBaseRTT
		}
		if p.rtt > budget {
			overruns = append(overruns, overrun{budget: budget, id: p.id})
		}
	}
	sort.Slice(overruns, func(i, j int) bool {
		if overruns[i].budget != overruns[j].budget {
			return overruns[i].budget < overruns[j].budget
		}
		return overruns[i].id < overruns[j].id
	})
	spare := primaries
	for _, o := range overruns {
		if spare >= len(peers) {
			break
		}
		s := peers[spare]
		spare++
		probes++
		arrivals = append(arrivals, grayPeer{id: s.id, votes: s.votes, rtt: o.budget + s.rtt})
	}
	latency = completion(arrivals)
	win = latency < unhedged
	return latency, unhedged, probes, win
}

// ConfigureHedge switches hedged gray reads on or off and sets the budget
// multiplier K (budget = mean + K·sigma slots; K<=0 keeps the default 3).
func (k *coordinator) ConfigureHedge(on bool, mult float64) {
	k.gray.hedge = on
	if mult > 0 {
		k.gray.hedgeK = mult
	}
}

// graySlots is the extra delivery delay, in slots, that the link schedule
// imposes on one x→p probe and its ack (0 without a schedule).
func (k *coordinator) graySlots(x, p int) int {
	return int(k.rtt(x, p) - grayBaseRTT)
}

// HedgeStats returns the cumulative (backup probes, hedge wins).
func (k *coordinator) HedgeStats() (probes, wins int64) {
	return k.gray.probes, k.gray.wins
}

// ServeReadGray runs ServeRead and models its completion latency under the
// link schedule's slowdowns and the active hedging configuration.
func (k *coordinator) ServeReadGray(x int) (Outcome, GrayReadStats) {
	out := k.ServeRead(x)
	gs := GrayReadStats{Latency: -1, Unhedged: -1}
	if !out.Granted {
		return out, gs
	}
	votes, self := k.view(x)
	peers := make([]grayPeer, 0, len(k.all))
	for _, p := range k.all {
		if p == x || !k.tr.siteUp(p) {
			continue
		}
		if k.cut(x, p) || k.cut(p, x) {
			continue // cut either way: no round trip exists to hedge
		}
		peers = append(peers, grayPeer{id: p, votes: k.st.Votes(p), rtt: k.rtt(x, p)})
	}
	k.gray.observeRead(k.obs, &gs, self.QR-votes, peers, x)
	return out, gs
}

// observeRead resolves the hedge model for one granted read at x over the
// alive peers and records the outcome into the estimators, counters, and
// obs registry.
func (g *grayState) observeRead(reg *obs.Registry, gs *GrayReadStats, need int, peers []grayPeer, x int) {
	for i := range peers {
		est := g.estOf(x, peers[i].id)
		if est.Ready() {
			peers[i].mean, peers[i].sigma = est.Stats()
		} else {
			peers[i].mean, peers[i].sigma = grayBaseRTT, 0.5
		}
	}
	lat, unhedged, probes, win := hedgeModel(need, peers, g.hedge, g.hedgeK)
	gs.Latency, gs.Unhedged, gs.Probes, gs.Win = lat, unhedged, probes, win

	// Every contacted round trip feeds the estimators — hedged and
	// unhedged runs learn the same profiles, so routing adapts equally.
	for i := range peers {
		g.estOf(x, peers[i].id).Observe(float64(peers[i].rtt))
	}
	g.probes += int64(probes)
	if win {
		g.wins++
	}

	if probes > 0 {
		reg.Add(obs.CHedgeProbe, int64(probes))
	}
	if win {
		reg.Inc(obs.CHedgeWin)
	}
	if lat >= 0 {
		reg.Observe(obs.HGrayReadSlots, lat)
	}
}
