package cluster

import (
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

// Micro-benchmarks for the robustness hot paths: the collect/drain round
// that every client operation takes, the write round (collect + apply
// fan-out), and the self-healing daemon's detector tick. The end-to-end
// benchmark (bench/) times the same paths under a served workload.

func benchCluster(tb testing.TB, sites int) *Cluster {
	tb.Helper()
	g := graph.Ring(sites)
	c, err := New(graph.NewState(g, nil), quorum.Majority(sites))
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// BenchmarkReadCollectDrain times the baseline read round: broadcast vote
// requests, drain the queue, tally replies against q_r.
func BenchmarkReadCollectDrain(b *testing.B) {
	c := benchCluster(b, 9)
	c.Write(0, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := c.Read(i % 9); !ok {
			b.Fatal("read denied on a healthy ring")
		}
	}
}

// BenchmarkWriteRound times the full write path: vote collection, version
// sync, and the applyWrite fan-out with acks.
func BenchmarkWriteRound(b *testing.B) {
	c := benchCluster(b, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Write(i%9, int64(i)) {
			b.Fatal("write denied on a healthy ring")
		}
	}
}

// BenchmarkDaemonStep times one detector tick on a healthy cluster: a
// heartbeat broadcast/drain, the miss-count accrual update, the mode
// computation, and the (non-triggering) daemon gate checks.
func BenchmarkDaemonStep(b *testing.B) {
	c := benchCluster(b, 9)
	c.EnableSelfHealing(DefaultHealthConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DaemonStep(i % 9)
	}
}

// degradedCluster is a 9-site ring cut into pieces (links 0 and 4 down,
// site 6 down) with self-healing on: every node suspects peers and sits
// below its write quorum.
func degradedCluster(tb testing.TB) *Cluster {
	c := benchCluster(tb, 9)
	c.EnableSelfHealing(DefaultHealthConfig())
	c.FailLink(0)
	c.FailLink(4)
	c.FailSite(6)
	return c
}

// BenchmarkDaemonStepDegraded times the tick on a partitioned ring, where
// the detector is accruing misses and the node sits below its write
// quorum — the worst-case bookkeeping path.
func BenchmarkDaemonStepDegraded(b *testing.B) {
	c := degradedCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DaemonStep(i % 3)
	}
}

// TestDaemonStepDegradedAllocs: a tick that reports suspects allocates its
// report's list once, at its final size, and nothing else.
func TestDaemonStepDegradedAllocs(t *testing.T) {
	c := degradedCluster(t)
	op := 0
	step := func() {
		if rep := c.DaemonStep(op % 3); len(rep.Suspected) == 0 && op >= 30 {
			t.Fatal("a tick on the cut ring suspects no one")
		}
		op++
	}
	for i := 0; i < 30; i++ { // warm-up: the detector's misses accrue to suspicion
		step()
	}
	if n := testing.AllocsPerRun(300, step); n > 1 {
		t.Fatalf("a degraded tick allocates %.2f objects, want at most 1", n)
	}
}

// BenchmarkDaemonResolve times the daemon's survivor re-solve as churn
// drives it on the bench's cluster: suspicion edges cycle over a fixed set
// of survivor sets, so every lap after the first re-installs a memoized
// certified strategy instead of solving the LP.
func BenchmarkDaemonResolve(b *testing.B) {
	c := benchConfigCluster(b)
	edges := [][]int{{8}, {2, 5}, nil, {1}, {4, 7}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.strategyResolve(0, edges[i%len(edges)])
	}
	if ct := c.StrategyCounters(); ct.ResolveFails != 0 {
		b.Fatalf("a survivor set lost its f = 1 strategy: %v", ct)
	}
}

// BenchmarkServeReadHealthy times the gated client path: degradation-mode
// check, baseline read, grant-window bookkeeping.
func BenchmarkServeReadHealthy(b *testing.B) {
	c := benchCluster(b, 9)
	c.EnableSelfHealing(DefaultHealthConfig())
	c.DaemonStep(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := c.ServeRead(i % 9); out.Err != nil {
			b.Fatal(out.Err)
		}
	}
}

// BenchmarkServeReadSampled times the read bench/ serves: the gated client
// path on the bench's cluster (benchConfigCluster), where a read probes one
// sampled quorum through the wire codec and the durable store. It reports
// the messages each read sends as msgs/op.
func BenchmarkServeReadSampled(b *testing.B) {
	c := benchConfigCluster(b)
	c.ServeWrite(0, 42)
	b.ReportAllocs()
	sent := c.Stats().Sent
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := c.ServeRead(i % 9); out.Err != nil {
			b.Fatal(out.Err)
		}
	}
	b.ReportMetric(float64(c.Stats().Sent-sent)/float64(b.N), "msgs/op")
}

// BenchmarkServeWriteSampled is its write twin: the write bench/ serves,
// on the same cluster, where a write probes one sampled write quorum, then
// applies the value at its members through the wire codec and the durable
// store. It reports the messages each write sends as msgs/op.
func BenchmarkServeWriteSampled(b *testing.B) {
	c := benchConfigCluster(b)
	b.ReportAllocs()
	sent := c.Stats().Sent
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := c.ServeWrite(i%9, int64(i)); out.Err != nil {
			b.Fatal(out.Err)
		}
	}
	b.ReportMetric(float64(c.Stats().Sent-sent)/float64(b.N), "msgs/op")
}

// BenchmarkGossipEstimates times the histogram exchange that feeds the
// optimizer: a histRequest broadcast, histReply drain, and the per-site
// density merge.
func BenchmarkGossipEstimates(b *testing.B) {
	c := benchCluster(b, 9)
	for x := 0; x < 9; x++ {
		for i := 0; i < 50; i++ {
			c.nodes[x].observe(1 + i%9)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.gossipEstimates(i % 9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDaemonAttempt times one triggered daemon attempt at memo-hit
// steady state on the bench's cluster (benchConfigCluster), as daemonDecide
// runs it: the §4.3 loop (gossip the histograms, rebuild the Figure-1
// model, a collect round for the assignment in force, the install rule)
// and the survivor re-solve, whose survivor sets cycle over a fixed few so
// every lap after the first re-arms a stored sampler.
func BenchmarkDaemonAttempt(b *testing.B) {
	c := benchConfigCluster(b)
	for i := 0; i < 50; i++ { // histograms to gossip
		c.ServeRead(i % 9)
	}
	h := c.health.cfg
	edges := [][]int{{8}, {2, 5}, nil, {1}, {4, 7}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.reassignOptimal(0, h.Alpha, h.Hysteresis); err != nil {
			b.Fatal(err)
		}
		c.strategyResolve(0, edges[i%len(edges)])
	}
	if ct := c.StrategyCounters(); ct.ResolveFails != 0 {
		b.Fatalf("a survivor set lost its f = 1 strategy: %v", ct)
	}
}
