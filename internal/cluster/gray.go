package cluster

import (
	"math"
	"sort"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/stats"
)

// Gray-failure layer: the slowdown rules of the runtime's
// faults.LinkSchedule (links.go) stretch message round trips without
// dropping anything, and a model of hedged reads prices the extra probes
// that route around the slowness.
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
// Hedged reads are a model, and the scenario driver runs it (RunAdversary
// with RecordLatency), not the runtime: the paper's accesses take no time,
// so a read's latency exists only as a function of the schedule. After a
// granted read the driver orders the peers its round could hear from by
// each link's learned latency profile, gives every primary of the minimal
// quorum a budget of mean + K·sigma slots, and lets a primary that overruns
// its budget trigger a backup probe to the next-fastest spare site. First
// q_r vote arrivals win. The round itself asked every site, so the model
// only decides *which* sites a hedged client would have asked and *when*
// its round would have completed, never what the round returns.

// grayBaseRTT is the fault-free heartbeat round trip in delivery slots
// (one slot per direction).
const grayBaseRTT = 2

// scheduleRTT is the modeled round trip of a probe from x to p and back at
// schedule time t, in delivery slots: grayBaseRTT plus the schedule's
// slowdown of each direction.
func scheduleRTT(ls *faults.LinkSchedule, t int64, x, p int) int64 {
	if ls == nil {
		return grayBaseRTT
	}
	return grayBaseRTT + ls.Delay(t, x, p) + ls.Delay(t, p, x)
}

// grayEstWindow is the sliding-window size of the per-link latency
// estimators that drive hedged-read routing and budgets.
const grayEstWindow = 16

// hedgeK is the scenario driver's budget multiplier K: a primary is overdue
// past ceil(mean + hedgeK·sigma) slots.
const hedgeK = 1.5

// linkEstimators are the scenario driver's per-link latency estimators, one
// per (coordinator, peer) link, created on first use.
type linkEstimators struct {
	n   int
	est []*stats.PhiEstimator // x*n+p
}

// newLinkEstimators sizes the table for n sites.
func newLinkEstimators(n int) *linkEstimators {
	return &linkEstimators{n: n, est: make([]*stats.PhiEstimator, n*n)}
}

// of returns the estimator of coordinator x observing peer p.
func (l *linkEstimators) of(x, p int) *stats.PhiEstimator {
	i := x*l.n + p
	if l.est[i] == nil {
		l.est[i] = stats.NewPhiEstimator(grayEstWindow)
	}
	return l.est[i]
}

// read models one read at x that needs need votes from peers under budget
// multiplier k: each peer's predicted round trip comes from its link's
// estimator (grayBaseRTT ± 0.5 while cold), hedgeModel resolves the round,
// and then every contacted round trip feeds the estimators — hedged and
// unhedged runs learn the same profiles, so routing adapts equally.
func (l *linkEstimators) read(x, need int, peers []grayPeer, hedge bool, k float64) (latency, unhedged int64, probes int, win bool) {
	for i := range peers {
		if est := l.of(x, peers[i].id); est.Ready() {
			peers[i].mean, peers[i].sigma = est.Stats()
		} else {
			peers[i].mean, peers[i].sigma = grayBaseRTT, 0.5
		}
	}
	latency, unhedged, probes, win = hedgeModel(need, peers, hedge, k)
	for i := range peers {
		l.of(x, peers[i].id).Observe(float64(peers[i].rtt))
	}
	return latency, unhedged, probes, win
}

// grayPeers appends to dst the peers a read at x can hear from at schedule
// time pt — up and in x's component on the mirror, and uncut both ways —
// with the schedule's round trip to each.
func grayPeers(dst []grayPeer, mirror *graph.State, links *faults.LinkSchedule, x int, pt int64) []grayPeer {
	for p := range mirror.Graph().N() {
		if p == x || !mirror.SiteUp(p) || !mirror.SameComponent(x, p) ||
			links.Blocked(pt, x, p) || links.Blocked(pt, p, x) {
			continue
		}
		dst = append(dst, grayPeer{id: p, votes: mirror.Votes(p), rtt: scheduleRTT(links, pt, x, p)})
	}
	return dst
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

// graySlots is the extra delivery delay, in slots, that the link schedule
// imposes on one x→p probe and its ack (0 without a schedule).
func (k *coordinator) graySlots(x, p int) int {
	return int(k.rtt(x, p) - grayBaseRTT)
}
