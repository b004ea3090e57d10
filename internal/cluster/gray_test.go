package cluster

import (
	"bytes"
	"testing"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
)

// newGrayCluster builds a complete(5) deterministic cluster with
// self-healing (given detector) and the gray schedule attached.
func newGrayCluster(t *testing.T, det DetectorKind, ls *faults.LinkSchedule) *Cluster {
	t.Helper()
	st := graph.NewState(graph.Complete(5), nil)
	c, err := New(st, quorum.Majority(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultHealthConfig()
	cfg.Detector = det
	c.EnableSelfHealing(cfg)
	c.EnableLinkFaults(ls)
	return c
}

// TestAsymmetricSlowdownSuspicion is the gray-failure litmus test: one
// one-way slow link (0→1 takes 30 extra slots, 1→0 is untouched). Every
// ack still arrives — nothing is dropped — so the φ detector, which never
// suspects an answering peer, must keep every view clean. The miss-count
// detector instead misreads any ack past its fixed deadline as a miss;
// and because a *round trip* between 0 and 1 traverses the slow direction
// whichever side probes, the single one-way slowdown drives both sides
// into suspecting each other. The contrast is the point: this mutual
// false suspicion is precisely the misclassification the φ detector
// exists to remove.
func TestAsymmetricSlowdownSuspicion(t *testing.T) {
	sched := func() *faults.LinkSchedule {
		return faults.NewLinkSchedule().
			AddLinkSlow(0, 1<<30, []int{0}, []int{1}, 30, 0)
	}

	// φ mode: slow is not dead. No suspicion edge anywhere, ever.
	c := newGrayCluster(t, DetectorPhi, sched())
	for i := 0; i < 40; i++ {
		c.SetPartitionTime(int64(i))
		for x := 0; x < 5; x++ {
			if rep := c.DaemonStep(x); len(rep.Suspected) != 0 {
				t.Fatalf("φ mode sweep %d: node %d suspects %v on a delay-only link",
					i, x, rep.Suspected)
			}
		}
	}
	if hc := c.HealthCounters(); hc.Suspicions != 0 || hc.LateAcks != 0 {
		t.Fatalf("φ mode must neither suspect nor count late acks: %+v", hc)
	}

	// Miss-count mode: the 32-slot round trip blows the 8-slot deadline in
	// both probe directions, so 0 and 1 mutually suspect — a false
	// positive against a live, answering pair.
	m := newGrayCluster(t, DetectorMissCount, sched())
	var reps [5]DaemonReport
	for i := 0; i < 10; i++ {
		m.SetPartitionTime(int64(i))
		for x := 0; x < 5; x++ {
			reps[x] = m.DaemonStep(x)
		}
	}
	if len(reps[0].Suspected) != 1 || reps[0].Suspected[0] != 1 {
		t.Fatalf("miss-count node 0 suspects %v, want [1]", reps[0].Suspected)
	}
	if len(reps[1].Suspected) != 1 || reps[1].Suspected[0] != 0 {
		t.Fatalf("miss-count node 1 suspects %v, want [0]", reps[1].Suspected)
	}
	for x := 2; x < 5; x++ {
		if len(reps[x].Suspected) != 0 {
			t.Fatalf("node %d off the slow link suspects %v", x, reps[x].Suspected)
		}
	}
	if hc := m.HealthCounters(); hc.LateAcks == 0 {
		t.Fatalf("miss-count mode must account its misread acks: %+v", hc)
	}
}

// TestDelayOnlyMetamorphic: a latency schedule with zero drops and zero
// cuts must not change what the deterministic runtime computes — only
// when. Two identical runs, one under a heavy schedule (site slowdowns,
// flapping, heavy-tail inflation) and one undelayed, must serve the same
// op stream to byte-identical final node states, with 1SR holding in both.
func TestDelayOnlyMetamorphic(t *testing.T) {
	build := func(ls *faults.LinkSchedule) *Cluster {
		return newGrayCluster(t, DetectorPhi, ls)
	}
	heavy := faults.NewLinkSchedule().
		AddSiteSlow(0, 200, 1, 12, 4).
		AddFlap(50, 150, []int{3}, 7, 6, 3).
		AddLinkSlow(20, 180, []int{2}, []int{4}, 9, 0).
		SetHeavyTail(99, 0.3, 5, 40)

	run := func(c *Cluster) {
		src := rng.New(0x6a70 ^ 0x67a1) // deterministic op stream
		value := int64(0)
		for step := 0; step < 120; step++ {
			c.SetPartitionTime(int64(step))
			if step%2 == 0 {
				for x := 0; x < 5; x++ {
					c.DaemonStep(x)
				}
			}
			site := src.Intn(5)
			if src.Float64() < 0.5 {
				c.ServeRead(site)
			} else {
				value++
				c.ServeWrite(site, value)
			}
		}
	}

	delayed, undelayed := build(heavy), build(nil)
	run(delayed)
	run(undelayed)
	for x := 0; x < 5; x++ {
		dv, ds, uv, us := delayed.NodeValue(x), delayed.NodeStamp(x), undelayed.NodeValue(x), undelayed.NodeStamp(x)
		if dv != uv || ds != us {
			t.Fatalf("node %d state diverged: delayed (v=%d s=%d) vs undelayed (v=%d s=%d)",
				x, dv, ds, uv, us)
		}
		if delayed.NodeVersion(x) != undelayed.NodeVersion(x) {
			t.Fatalf("node %d assignment version diverged: %d vs %d",
				x, delayed.NodeVersion(x), undelayed.NodeVersion(x))
		}
	}
	if hc := delayed.HealthCounters(); hc.Suspicions != 0 {
		t.Fatalf("delay-only schedule must not drive suspicions: %+v", hc)
	}
}

// TestPhiMissCountCrosscheckOnDeath: on a clean site death (true silence,
// not slowness) the φ detector must not be slower than the miss-count
// rule — with a stable fault-free latency regime, both suspect on the
// second missed probe.
func TestPhiMissCountCrosscheckOnDeath(t *testing.T) {
	sweepsUntilSuspect := func(det DetectorKind) int {
		c := newGrayCluster(t, det, nil)
		for i := 0; i < 6; i++ { // warm the φ windows well past Ready
			c.SetPartitionTime(int64(i))
			c.DaemonStep(0)
		}
		c.FailSite(3)
		for i := 0; i < 10; i++ {
			c.SetPartitionTime(int64(6 + i))
			rep := c.DaemonStep(0)
			if len(rep.Suspected) == 1 && rep.Suspected[0] == 3 {
				return i + 1
			}
		}
		t.Fatalf("%v never suspected a dead site", det)
		return -1
	}
	missCount := sweepsUntilSuspect(DetectorMissCount)
	phi := sweepsUntilSuspect(DetectorPhi)
	if missCount != 2 {
		t.Fatalf("miss-count suspected after %d sweeps, want 2", missCount)
	}
	if phi > missCount {
		t.Fatalf("φ (%d sweeps) slower than miss-count (%d) on a clean death", phi, missCount)
	}
}

// TestHedgedReadWinsAndAdapts: with one slow replica, a hedged read's
// backup probe must beat waiting out the slow primary; and because every
// contacted round trip feeds the latency estimators, repeated reads must
// learn to route around the slow site entirely (no probes needed, base
// latency).
func TestHedgedReadWinsAndAdapts(t *testing.T) {
	ls := faults.NewLinkSchedule().AddSiteSlow(0, 1<<30, 1, 10, 0)
	c := newGrayCluster(t, DetectorPhi, ls)
	c.ConfigureHedge(true, 3)
	c.SetPartitionTime(0)

	out, gs := c.ServeReadGray(0)
	if !out.Granted {
		t.Fatalf("read not granted: %+v", out)
	}
	// Cold estimators order peers by id, so the slow site 1 is the one
	// primary (q_r=2, self holds 1 vote). Its 22-slot round trip blows the
	// ceil(2 + 3·0.5) = 4-slot budget; the spare lands at 4+2 = 6.
	if !gs.Win || gs.Probes == 0 || gs.Latency >= gs.Unhedged {
		t.Fatalf("first hedged read must win: %+v", gs)
	}
	if gs.Unhedged != 22 || gs.Latency != 6 {
		t.Fatalf("modeled latencies wrong: %+v (want unhedged 22, hedged 6)", gs)
	}

	for i := 0; i < 6; i++ {
		c.SetPartitionTime(int64(1 + i))
		_, gs = c.ServeReadGray(0)
	}
	// The estimators have learned site 1's profile; routing now avoids it.
	if gs.Probes != 0 || gs.Latency != grayBaseRTT {
		t.Fatalf("routing failed to adapt around the slow replica: %+v", gs)
	}
	probes, wins := c.HedgeStats()
	if probes == 0 || wins == 0 {
		t.Fatalf("hedge accounting empty: probes=%d wins=%d", probes, wins)
	}
}

// TestGrayObsByteStable extends the observability determinism guarantee
// to the gray path: two identical gray runs (hedged reads, φ detector,
// heavy-tailed schedule) must render byte-identical Prometheus
// expositions, including the new hedge/suspicion/late-ack counters and
// the φ histogram.
func TestGrayObsByteStable(t *testing.T) {
	run := func() []byte {
		ls := faults.NewLinkSchedule().
			AddSiteSlow(0, 100, 1, 10, 0).
			SetHeavyTail(7, 0.2, 4, 30)
		c := newGrayCluster(t, DetectorPhi, ls)
		r := obs.New()
		c.SetObserver(r)
		c.ConfigureHedge(true, 3)
		value := int64(0)
		for step := 0; step < 60; step++ {
			c.SetPartitionTime(int64(step))
			if step%2 == 0 {
				for x := 0; x < 5; x++ {
					c.DaemonStep(x)
				}
			}
			c.ServeReadGray(step % 5)
			value++
			c.ServeWrite((step+1)%5, value)
		}
		var buf bytes.Buffer
		if err := r.Snapshot().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("gray run expositions differ between identical runs")
	}
	for _, name := range []string{
		"quorumkit_hedge_probes_total",
		"quorumkit_hedge_wins_total",
		"quorumkit_suspicion_false_positive_total",
		"quorumkit_late_acks_total",
		"quorumkit_phi_centi",
		"quorumkit_gray_read_slots",
	} {
		if !bytes.Contains(a, []byte(name)) {
			t.Fatalf("exposition missing %s", name)
		}
	}
}

// TestAsyncGrayHeartbeat: the concurrent runtime enforces gray delays on
// the real transport — a slowed heartbeat ack sleeps through its delay
// slots — and its detector receives the same schedule-derived round trips
// as the deterministic runtime, so the two runtimes reach the same
// verdicts: φ keeps a slow-but-alive peer unsuspected, miss-count
// misreads it.
func TestAsyncGrayHeartbeat(t *testing.T) {
	build := func(det DetectorKind) *Async {
		st := graph.NewState(graph.Complete(5), nil)
		a, err := NewAsync(st, quorum.Majority(5))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultHealthConfig()
		cfg.Detector = det
		a.EnableSelfHealing(cfg)
		// 20 extra slots round trip: 1ms of real delay per probe, well
		// past the miss deadline (8) but nowhere near the gather deadline.
		a.EnableLinkFaults(faults.NewLinkSchedule().
			AddSiteSlow(0, 1<<30, 1, 10, 0))
		a.SetPartitionTime(0)
		return a
	}

	phi := build(DetectorPhi)
	defer phi.Close()
	for i := 0; i < 8; i++ {
		phi.SetPartitionTime(int64(i))
		for x := 0; x < 5; x++ {
			if rep := phi.DaemonStep(x); len(rep.Suspected) != 0 {
				t.Fatalf("φ async: node %d suspects %v on a delay-only schedule",
					x, rep.Suspected)
			}
		}
	}
	if hc := phi.HealthCounters(); hc.Suspicions != 0 || hc.HeartbeatAcks == 0 {
		t.Fatalf("φ async accounting: %+v", hc)
	}

	mc := build(DetectorMissCount)
	defer mc.Close()
	for i := 0; i < 8; i++ {
		mc.SetPartitionTime(int64(i))
		for x := 0; x < 5; x++ {
			mc.DaemonStep(x)
		}
	}
	hc := mc.HealthCounters()
	if hc.LateAcks == 0 || hc.Suspicions == 0 {
		t.Fatalf("miss-count async must misread slow acks as misses: %+v", hc)
	}
	rep := mc.DaemonStep(0)
	if len(rep.Suspected) != 1 || rep.Suspected[0] != 1 {
		t.Fatalf("miss-count async node 0 suspects %v, want [1]", rep.Suspected)
	}
}
