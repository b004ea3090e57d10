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

func benchCluster(b *testing.B, sites int) *Cluster {
	b.Helper()
	g := graph.Ring(sites)
	c, err := New(graph.NewState(g, nil), quorum.Majority(sites))
	if err != nil {
		b.Fatal(err)
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

// BenchmarkDaemonStepDegraded times the tick on a partitioned ring, where
// the detector is accruing misses and the node sits below its write
// quorum — the worst-case bookkeeping path.
func BenchmarkDaemonStepDegraded(b *testing.B) {
	c := benchCluster(b, 9)
	c.EnableSelfHealing(DefaultHealthConfig())
	c.FailLink(0)
	c.FailLink(4)
	c.FailSite(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DaemonStep(i % 3)
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
// sampled quorum through the wire codec and the durable store.
func BenchmarkServeReadSampled(b *testing.B) {
	c := benchConfigCluster(b)
	c.ServeWrite(0, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := c.ServeRead(i % 9); out.Err != nil {
			b.Fatal(out.Err)
		}
	}
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
		if _, err := c.GossipEstimates(i % 9); err != nil {
			b.Fatal(err)
		}
	}
}
