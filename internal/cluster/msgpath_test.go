package cluster

import (
	"fmt"
	"testing"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
	"quorumkit/internal/strategy"
)

// Tests of what one message costs to carry and of what the transports let
// into a round: the allocation tripwire, the forged-sender check, and the
// exactness of the per-drain message counters.

// benchConfigCluster builds the cluster bench/ serves from: 9 sites on a
// complete graph, the durable store on, wire mode on, a counting registry
// attached, the certified f=1 capacity strategy installed, self-healing
// enabled.
func benchConfigCluster(tb testing.TB) *Cluster {
	tb.Helper()
	const n, readShare = 9, 0.9
	c, err := New(graph.NewState(graph.Complete(n), nil), quorum.Majority(n))
	if err != nil {
		tb.Fatal(err)
	}
	c.SetWireMode(true)
	c.SetObserver(obs.New())
	votes, ones := make([]int, n), make([]float64, n)
	for i := range votes {
		votes[i], ones[i] = 1, 1
	}
	a := quorum.Majority(n)
	sys := strategy.System{Votes: votes, QR: a.QR, QW: a.QW, ReadCap: ones, WriteCap: ones, Latency: ones}
	res, err := strategy.OptimizeResilientCapacity(sys, strategy.SingleFr(readShare), 1, strategy.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := res.Certify(1e-6); err != nil {
		tb.Fatal(err)
	}
	if err := c.InstallStrategy(res.Strategy, c.NodeAssignment(0), c.NodeVersion(0), 3, 1); err != nil {
		tb.Fatal(err)
	}
	health := DefaultHealthConfig()
	health.Alpha = readShare
	health.Strategy = StrategyResolveConfig{Resilience: 1, Seed: 1}
	c.EnableSelfHealing(health)
	return c
}

// TestMessagePathZeroAlloc is the tripwire on the serving path's
// allocations: once the queue, inbox, wire buffer and round scratch have
// grown to size, a sampled read and a healthy detector tick touch the heap
// not at all, and a write only through the store's amortised snapshot.
// bench/'s runtime.mallocs_per_op reads the same path from outside.
func TestMessagePathZeroAlloc(t *testing.T) {
	c := benchConfigCluster(t)
	op := 0
	step := func(f func(x int)) func() {
		return func() {
			f(op % 9)
			op++
		}
	}
	read := step(func(x int) {
		if out := c.ServeRead(x); !out.Granted {
			t.Fatalf("read denied on a healthy cluster: %v", out.Err)
		}
	})
	write := step(func(x int) {
		if out := c.ServeWrite(x, int64(op)); !out.Granted {
			t.Fatalf("write denied on a healthy cluster: %v", out.Err)
		}
	})
	daemon := step(func(x int) {
		if rep := c.DaemonStep(x); rep.Err != nil || rep.Triggered {
			t.Fatalf("daemon step on a healthy cluster: %+v", rep)
		}
	})
	for i := 0; i < 300; i++ { // warm-up: every buffer reaches its size
		read()
		write()
		daemon()
	}
	for _, tc := range []struct {
		name string
		f    func()
		max  float64
	}{
		{"ServeRead", read, 0},
		{"ServeWrite", write, 1},
		{"DaemonStep", daemon, 0},
	} {
		if n := testing.AllocsPerRun(500, tc.f); n > tc.max {
			t.Errorf("%s allocates %.1f objects per call, want at most %.0f", tc.name, n, tc.max)
		}
	}
	if c.StrategyCounters().SampledReads == 0 || c.Stats().Sent == 0 {
		t.Fatal("the sampled path was not exercised")
	}
}

// forgedFroms are the senders a corrupted or forged reply can claim at a
// 5-site cluster when it really comes from site 1: one past the last site,
// the wire's 0xFFFFFFFF, and another (real) site.
var forgedFroms = []int32{5, -1, 2}

// TestForgedSenderIsDropped injects, for each reply kind, a reply whose
// claimed from differs from the site it comes from, into the round that
// gathers that kind. The decoder accepts any from and the rounds index by
// it, so the transport must lose such a reply: no panic, no vote counted,
// one more message dropped than in the same round run honestly.
func TestForgedSenderIsDropped(t *testing.T) {
	const n, x, sender = 5, 0, 1
	// Only x and the sender are up, so no honest round reaches a quorum of
	// 3: a forged vote that counted would show as a grant.
	build := func(t *testing.T) *Cluster {
		c, err := New(graph.NewState(graph.Complete(n), nil), quorum.Assignment{QR: 3, QW: 3})
		if err != nil {
			t.Fatal(err)
		}
		c.SetWireMode(true)
		c.EnableSelfHealing(DefaultHealthConfig())
		for i := 2; i < n; i++ {
			c.FailSite(i)
		}
		return c
	}
	for _, from := range forgedFroms {
		kinds := []struct {
			name   string
			forged msg
			round  func(t *testing.T, c *Cluster)
		}{
			{"voteReply", msg{tag: tagVoteReply, from: from, votes: 100, value: 666, stamp: 1 << 40, version: 99, qr: 1, qw: 1},
				func(t *testing.T, c *Cluster) {
					if _, _, ok := c.Read(x); ok {
						t.Fatal("a forged vote reply filled the read quorum")
					}
					if c.NodeVersion(x) != 1 || c.NodeStamp(x) != 0 {
						t.Fatal("the coordinator adopted forged copy state")
					}
				}},
			{"applyAck", msg{tag: tagApplyAck, from: from, stamp: 1 << 40},
				func(t *testing.T, c *Cluster) {
					if votes, count := c.pushApplies(x, []int{sender}, 7, 3); votes != 1 || count != 1 {
						t.Fatalf("a forged ack was counted: %d votes from %d acks, want 1 from 1", votes, count)
					}
				}},
			{"histReply", msg{tag: tagHistReply, from: from, weights: []float64{0, 0, 0, 0, 0, 9}},
				func(t *testing.T, c *Cluster) {
					est, err := c.GossipEstimates(x)
					if err != nil {
						t.Fatal(err)
					}
					for site := 0; site < n; site++ {
						if w := est.Weight(site); w != 0 {
							t.Fatalf("a forged histogram row landed on site %d (weight %v)", site, w)
						}
					}
				}},
			{"heartbeatAck", msg{tag: tagHeartbeatAck, from: from, seq: 1, votes: 100, version: 99},
				func(t *testing.T, c *Cluster) {
					if rep := c.DaemonStep(x); rep.ReachableVotes != 2 {
						t.Fatalf("a forged ack was counted: %d reachable votes, want 2", rep.ReachableVotes)
					}
				}},
		}
		for _, k := range kinds {
			t.Run(fmt.Sprintf("%s/from=%d", k.name, from), func(t *testing.T) {
				clean, c := build(t), build(t)
				k.round(t, clean)
				c.send(sender, x, &k.forged) // first in the queue of the next round
				k.round(t, c)
				want := clean.Stats()
				want.Sent++
				want.Dropped++
				if got := c.Stats(); got != want {
					t.Fatalf("stats %+v, want the honest round's plus one message sent and dropped: %+v", got, want)
				}
			})
		}
	}
}

// TestForgedSenderIsDroppedAsync is the concurrent transport's half: a
// replica that answers under another site's id (its id field corrupted) is
// not gathered, for each reply kind an Async round collects.
func TestForgedSenderIsDroppedAsync(t *testing.T) {
	const n, x, liar = 5, 0, 1
	for _, from := range forgedFroms {
		t.Run(fmt.Sprintf("from=%d", from), func(t *testing.T) {
			st := graph.NewState(graph.Complete(n), nil)
			a, err := NewAsync(st, quorum.Assignment{QR: 3, QW: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			a.EnableSelfHealing(DefaultHealthConfig())
			mix, _ := faults.Named("none")
			a.EnableChaos(faults.NewPlan(1, mix), DefaultRetryPolicy())
			a.lock(liar).id = int(from)
			a.unlock(liar)

			// All sites up: the write commits on the three honest peers,
			// without the liar's vote or ack.
			if out := a.ChaosWrite(x, 7); !out.Granted {
				t.Fatalf("write denied: %v", out.Err)
			}
			for i := 2; i < n; i++ {
				a.FailSite(i)
			}
			// Only x and the liar are up: nothing the liar says may count.
			if _, _, ok := a.Read(x); ok {
				t.Fatal("a vote reply under a forged id filled the read quorum")
			}
			if rep := a.DaemonStep(x); rep.ReachableVotes != 1 {
				t.Fatalf("a heartbeat ack under a forged id was counted: %d reachable votes, want 1", rep.ReachableVotes)
			}
		})
	}
}

// TestBatchedMessageCountersExact: the deterministic runtime publishes its
// message counters once per drain, so after every public operation returns
// the obs counters must equal Stats field for field — over every chaos mix
// layered on a partition storm, through hardened and baseline operations,
// daemon steps, recoveries and gossip. With a tracing registry the
// per-message events are still emitted one by one, and their number must
// equal the counters.
func TestBatchedMessageCountersExact(t *testing.T) {
	const n, steps = 7, 500
	for _, mixName := range faults.Names() {
		for _, tracing := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/tracing=%v", mixName, tracing), func(t *testing.T) {
				mix, err := faults.Named(mixName)
				if err != nil {
					t.Fatal(err)
				}
				g := graph.Complete(n)
				c, err := New(graph.NewState(g, nil), quorum.Majority(n))
				if err != nil {
					t.Fatal(err)
				}
				reg := obs.New()
				if tracing {
					reg = obs.NewTracing(1 << 18)
				}
				c.SetObserver(reg)
				c.SetWireMode(true)
				c.EnableSelfHealing(DefaultHealthConfig())
				c.EnableChaos(faults.NewPlan(17, mix), DefaultRetryPolicy())
				c.EnableLinkFaults(faults.Storm(17, faults.StormConfig{
					Sites: n, Regions: [][]int{{0, 1}, {2, 3, 4}, {6}}, Start: 10, End: steps,
					MeanDuration: 25, MeanGap: 30, OneWayFraction: 0.4,
				}))

				src := rng.New(17 ^ 0xc0de)
				for step := 0; step < steps; step++ {
					c.SetPartitionTime(int64(step))
					x := src.Intn(n)
					var what string
					switch src.Intn(10) {
					case 0, 1:
						what = "ChaosRead"
						c.ChaosRead(x)
					case 2, 3:
						what = "ChaosWrite"
						c.ChaosWrite(x, int64(step))
					case 4:
						what = "ChaosReassign"
						qr := 1 + src.Intn(3)
						c.ChaosReassign(x, quorum.Assignment{QR: qr, QW: n + 1 - qr})
					case 5:
						what = "DaemonStep"
						c.DaemonStep(x)
					case 6:
						what = "Recover"
						for _, p := range c.Crashed() {
							c.Recover(p)
						}
					case 7:
						what = "Read+Write"
						c.Read(x)
						c.Write(x, int64(step))
					case 8:
						what = "GossipEstimates"
						c.GossipEstimates(x)
					case 9:
						what = "ServeRead"
						c.ServeRead(x)
					}
					got := Stats{Sent: reg.Counter(obs.CMsgSent), Delivered: reg.Counter(obs.CMsgDelivered),
						Dropped: reg.Counter(obs.CMsgDropped)}
					if got != c.Stats() {
						t.Fatalf("step %d, after %s: obs counters %+v, Stats %+v", step, what, got, c.Stats())
					}
				}
				final := c.Stats()
				if final.Sent == 0 || final.Dropped == 0 {
					t.Fatalf("the run exercised nothing: %+v", final)
				}
				if !tracing {
					return
				}
				tr := reg.Trace()
				if tr.Dropped() != 0 {
					t.Fatalf("trace ring overflowed (%d events lost); raise its capacity", tr.Dropped())
				}
				events := Stats{Sent: int64(len(tr.Filter(obs.EvMsgSend))),
					Delivered: int64(len(tr.Filter(obs.EvMsgRecv))), Dropped: int64(len(tr.Filter(obs.EvMsgDrop)))}
				if events != final {
					t.Fatalf("message events %+v, counters %+v", events, final)
				}
			})
		}
	}
}
