package cluster

import (
	"fmt"

	"quorumkit/internal/quorum"
	"quorumkit/internal/store"
)

// replica is one site's protocol state machine: its copy, its durable
// store, the §4.2 on-line histogram and the amnesiac flag. It is the single
// receiver both runtimes deliver to. A replica touches no queue, channel,
// lock or runtime — receive maps one delivered message to at most one reply
// — so whoever delivers to it decides how messages travel and how access is
// serialized.
type replica struct {
	id    int
	votes int
	quorum.Copy

	// hist accumulates the component vote totals this site has witnessed
	// (the §4.2 on-line record): hist[v] is the weight of total v. It is nil
	// until the first observation; bins is T+1, its length once allocated.
	hist []float64
	bins int
	// row is the copy of hist a histReply carries, refilled per request:
	// the reply allocates nothing and never shares the live histogram.
	row []float64

	store    *store.NodeStore // durable state; nil when persistence is off
	amnesiac bool             // durable state lost; must rejoin by state sync
}

// receive processes one delivered request, which it only reads, and writes
// the reply it externalizes into reply, which the transport owns (Cluster's
// new body for it, so the reply is built where it travels from); reply.tag
// 0 is no reply — the
// request wants none or the replica abstains. An amnesiac replica abstains
// from every quorum-bearing exchange (votes, acknowledged applies,
// heartbeats, histogram gossip) while still passively adopting newer state.
// Every reply is preceded by the store's sync barrier: nothing derived from
// the copy leaves the site before it is durable.
func (r *replica) receive(m, reply *msg) {
	*reply = msg{}
	switch m.tag {
	case tagVoteRequest:
		if r.amnesiac {
			return // its reply could cover a committed write through the copy that forgot it
		}
		r.syncStore()
		reply.tag, reply.from, reply.votes = tagVoteReply, int32(r.id), int32(r.votes)
		reply.setCopy(r.Copy)
	case tagSyncState, tagInstallAssign:
		if r.Adopt(m.copy()) {
			r.persistState()
		}
		if m.votesSeen > 0 { // a syncState's; an installAssign carries none
			r.observe(int(m.votesSeen))
		}
	case tagApplyWrite:
		if m.stamp > r.Stamp {
			r.Stamp, r.Value = m.stamp, m.value
			r.persistState()
		}
		if m.wantAck && !r.amnesiac { // an amnesiac ack must not count toward a write quorum
			r.syncStore()
			reply.tag, reply.from, reply.stamp = tagApplyAck, int32(r.id), r.Stamp
		}
	case tagHistRequest:
		if r.amnesiac {
			return // no trustworthy observations to gossip
		}
		reply.tag, reply.from = tagHistReply, int32(r.id)
		if r.hist != nil {
			r.row = append(r.row[:0], r.hist...)
			reply.weights = &r.row
		}
	case tagHeartbeat:
		if r.amnesiac {
			return // silent until readmitted; peers accrue a miss
		}
		r.syncStore()
		reply.tag, reply.from, reply.seq = tagHeartbeatAck, int32(r.id), m.seq
		reply.votes, reply.version = int32(r.votes), r.Version
	default:
		panic(fmt.Sprintf("cluster: replica received message tag %d", m.tag))
	}
}

// observe records one vote-total observation for the §4.2 estimator.
// Totals outside [0, T] are impossible in a correct round and are
// discarded: an unreliable transport can duplicate vote replies into the
// unhardened collection path, and a forged total must corrupt neither the
// estimator nor the process.
func (r *replica) observe(votes int) {
	if votes < 0 || votes >= r.bins {
		return
	}
	if r.hist == nil {
		r.hist = make([]float64, r.bins)
	}
	r.hist[votes]++
	if r.store != nil && !r.amnesiac {
		r.store.PutObservation(votes)
	}
}

// persistState appends the current copy to the log (volatile until the next
// sync barrier). An amnesiac replica has no durable identity to append to;
// rejoin re-establishes one via Reset.
func (r *replica) persistState() {
	if r.store != nil && !r.amnesiac {
		r.store.PutState(r.Copy)
	}
}

// syncStore is the externalization barrier: nothing derived from the copy
// may leave the site before its durable log is flushed and sealed.
func (r *replica) syncStore() {
	if r.store != nil && !r.amnesiac {
		r.store.Sync()
	}
}

// reload recovers the store after a crash and, when its sealed state is
// intact, reloads the copy and histogram from it. An error means the
// durable state is lost; the in-memory state is then left as it was. With
// persistence off it keeps the in-memory state.
func (r *replica) reload() error {
	if r.store == nil {
		return nil
	}
	st, hist, err := r.store.Recover()
	if err == nil {
		r.Copy, r.hist = st, histogramFrom(hist, r.bins)
	}
	return err
}

// forget zeroes the copy and marks the replica amnesiac: its durable state
// is gone, so everything it "knows" is untrustworthy. It reports whether
// the replica was already amnesiac.
func (r *replica) forget() (already bool) {
	r.Copy, r.hist = quorum.Copy{}, nil
	already, r.amnesiac = r.amnesiac, true
	return already
}

// readmit installs state transferred from a rejoin quorum as a fresh
// durable identity, ending amnesia before the replica answers its first
// vote request.
func (r *replica) readmit(s quorum.Copy) {
	r.Copy, r.hist, r.amnesiac = s, nil, false
	if r.store != nil {
		r.store.Reset(r.Copy, nil)
	}
}

// histogramFrom rebuilds the observation row from recovered weights. Returns
// nil when nothing was recorded, mirroring the lazy allocation.
// Out-of-range bins (a vote total the current topology cannot produce) are
// dropped rather than trusted.
func histogramFrom(weights []float64, bins int) []float64 {
	var h []float64
	for v, w := range weights {
		if v >= bins || w <= 0 {
			continue
		}
		if h == nil {
			h = make([]float64, bins)
		}
		h[v] += w
	}
	return h
}
