package cluster

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

// newHealthCluster builds a complete(5) deterministic cluster with
// self-healing attached. Majority(5) = (q_r=2, q_w=4).
func newHealthCluster(t *testing.T, cfg HealthConfig) (*Cluster, *graph.State) {
	t.Helper()
	g := graph.Complete(5)
	st := graph.NewState(g, nil)
	c, err := New(st, quorum.Majority(5))
	if err != nil {
		t.Fatal(err)
	}
	c.EnableSelfHealing(cfg)
	return c, st
}

// isolate fails every link incident to site i in a complete graph.
func isolate(st *graph.State, g *graph.Graph, i int) {
	for j := 0; j < g.N(); j++ {
		if j != i {
			st.FailLink(g.EdgeIndex(i, j))
		}
	}
}

func TestDetectorSuspectsAndUnsuspects(t *testing.T) {
	c, st := newHealthCluster(t, DefaultHealthConfig())

	rep := c.DaemonStep(0)
	if len(rep.Suspected) != 0 || rep.Mode != ModeHealthy {
		t.Fatalf("healthy cluster: %+v", rep)
	}

	st.FailSite(3)
	rep = c.DaemonStep(0)
	if len(rep.Suspected) != 0 {
		t.Fatalf("one miss must not suspect (accrual detector): %+v", rep)
	}
	rep = c.DaemonStep(0)
	if len(rep.Suspected) != 1 || rep.Suspected[0] != 3 {
		t.Fatalf("after %d misses node 3 must be suspected: %+v", suspectAfter, rep)
	}

	st.RepairSite(3)
	rep = c.DaemonStep(0)
	if len(rep.Suspected) != 0 {
		t.Fatalf("one ack must unsuspect immediately: %+v", rep)
	}
	hc := c.HealthCounters()
	if hc.Suspicions != 1 || hc.Unsuspicions != 1 {
		t.Fatalf("suspicion accounting: %+v", hc)
	}
}

func TestDegradationModesAndTypedErrors(t *testing.T) {
	c, st := newHealthCluster(t, DefaultHealthConfig())
	g := st.Graph()

	// Cut sites 3 and 4 off: component {0,1,2} holds 3 votes — a read
	// quorum (2) but not a write quorum (4).
	isolate(st, g, 3)
	isolate(st, g, 4)
	c.DaemonStep(0)
	if got := c.health.views[0].mode; got != ModeReadOnly {
		t.Fatalf("3-of-5 component must be read-only, got %v", got)
	}
	out := c.ServeWrite(0, 42)
	if !errors.Is(out.Err, ErrDegradedWrites) || out.Granted {
		t.Fatalf("degraded write must fail fast with ErrDegradedWrites: %+v", out)
	}
	if out = c.ServeRead(0); !out.Granted {
		t.Fatalf("read-only node must still serve reads: %+v", out)
	}

	// Now cut 1 and 2 off too: node 0 alone has 1 vote — below q_r.
	isolate(st, g, 1)
	isolate(st, g, 2)
	c.DaemonStep(0)
	if got := c.health.views[0].mode; got != ModeUnavailable {
		t.Fatalf("isolated node must be unavailable, got %v", got)
	}
	if out = c.ServeRead(0); !errors.Is(out.Err, ErrUnavailable) || out.Granted {
		t.Fatalf("unavailable read must fail fast with ErrUnavailable: %+v", out)
	}
	if out = c.ServeWrite(0, 43); !errors.Is(out.Err, ErrUnavailable) || out.Granted {
		t.Fatalf("unavailable write must fail fast with ErrUnavailable: %+v", out)
	}

	// Heal: the next probe restores service without any manual reset.
	for l := 0; l < g.M(); l++ {
		st.RepairLink(l)
	}
	c.DaemonStep(0)
	if got := c.health.views[0].mode; got != ModeHealthy {
		t.Fatalf("healed node must be healthy, got %v", got)
	}
	if out = c.ServeWrite(0, 44); !out.Granted || out.Err != nil {
		t.Fatalf("healed write must succeed: %+v", out)
	}
	hc := c.HealthCounters()
	if hc.Degradations == 0 || hc.Healings == 0 || hc.DegradedWrites < 2 || hc.DegradedReads < 1 {
		t.Fatalf("degradation accounting: %+v", hc)
	}
}

// TestDaemonReassignsOnSuspicionTrigger crafts density estimates under
// which the optimizer must prefer q_r=1 for a read-heavy workload, then
// fires the suspicion edge trigger and checks the full
// trigger→leader→optimize→install path.
func TestDaemonReassignsOnSuspicionTrigger(t *testing.T) {
	cfg := DefaultHealthConfig()
	cfg.Alpha = 0.9
	c, st := newHealthCluster(t, cfg)

	// Seed every site's §4.2 histogram: components are usually tiny.
	for x := 0; x < 5; x++ {
		for i := 0; i < 80; i++ {
			c.nodes[x].observe(1)
		}
		for i := 0; i < 20; i++ {
			c.nodes[x].observe(5)
		}
	}

	// Edge trigger: site 4 fails and gets suspected.
	st.FailSite(4)
	c.DaemonStep(0)
	rep := c.DaemonStep(0) // second miss → suspected → trigger
	if !rep.Triggered || !rep.Attempted {
		t.Fatalf("suspicion edge must trigger an attempt: %+v", rep)
	}
	if !rep.Reassigned {
		t.Fatalf("optimizer must install a small read quorum for α=0.9: %+v", rep)
	}
	a, _, ok := c.EffectiveAssignment(0)
	if !ok || a.QR != 1 {
		t.Fatalf("installed assignment: %v (ok=%v), want q_r=1", a, ok)
	}
	if v := c.NodeVersion(0); v < 2 {
		t.Fatalf("install must bump the assignment version, got %d", v)
	}
}

func TestDaemonLeaderGateAndCooldown(t *testing.T) {
	c, st := newHealthCluster(t, DefaultHealthConfig())

	st.FailSite(4)
	c.DaemonStep(1)
	c.DaemonStep(1) // node 1 now suspects 4 and is triggered...
	hc := c.HealthCounters()
	if hc.NotLeaderSkips == 0 {
		t.Fatalf("node 1 must defer to unsuspected node 0: %+v", hc)
	}
	// ...but node 0, once it also suspects 4, attempts.
	c.DaemonStep(0)
	rep := c.DaemonStep(0)
	if !rep.Attempted {
		t.Fatalf("leader must attempt: %+v", rep)
	}
	// A fresh suspicion edge inside the cooldown window (three ticks after
	// the attempt, cooldownTicks = 4) is rate-limited.
	st.RepairSite(4)
	c.DaemonStep(0) // unsuspect 4 → new edge
	st.FailSite(4)
	c.DaemonStep(0)
	rep = c.DaemonStep(0) // suspected again → trigger, but cooling down
	if rep.Attempted {
		t.Fatalf("attempt inside cooldown: %+v", rep)
	}
	if hc = c.HealthCounters(); hc.CooldownSkips == 0 {
		t.Fatalf("cooldown accounting: %+v", hc)
	}
}

// TestGrantRateTrigger drives the level trigger: a full window of denials
// below the floor must trigger the daemon even with no suspicion change.
func TestGrantRateTrigger(t *testing.T) {
	c, st := newHealthCluster(t, DefaultHealthConfig())
	g := st.Graph()

	// Site 4 is cut off and suspected; node 0 leads {0,1,2,3}, which holds a
	// write quorum, so the suspicion edge is consumed by one attempt (which
	// also empties the grant window).
	isolate(st, g, 4)
	c.DaemonStep(0)
	if rep := c.DaemonStep(0); !rep.Attempted {
		t.Fatalf("suspicion edge must be consumed by an attempt: %+v", rep)
	}
	// Node 0 is cut off from everyone between two probes: its last probe
	// still admits writes, and each one fails for want of a quorum.
	for p := 1; p < 4; p++ {
		isolate(st, g, p)
	}
	for i := 0; i < windowSize; i++ {
		if out := c.ServeWrite(0, int64(i)); out.Granted {
			t.Fatalf("isolated write %d granted: %+v", i, out)
		}
	}
	// One missed probe suspects nobody new, so only the window can trigger.
	rep := c.DaemonStep(0)
	if !rep.Triggered || len(rep.Suspected) != 1 || rep.Suspected[0] != 4 {
		t.Fatalf("full window of denials must trigger with no suspicion change: %+v", rep)
	}
}

// TestDegradedOpsNeverHangAsync: typed fast-fail on the concurrent runtime
// must return promptly even when the node's component holds no quorum.
func TestDegradedOpsNeverHangAsync(t *testing.T) {
	g := graph.Complete(5)
	st := graph.NewState(g, nil)
	a, err := NewAsync(st, quorum.Majority(5))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.EnableSelfHealing(DefaultHealthConfig())

	for l := 0; l < g.M(); l++ {
		a.FailLink(l)
	}
	a.DaemonStep(0)
	done := make(chan Outcome, 2)
	go func() { done <- a.ServeWrite(0, 1) }()
	go func() { done <- a.ServeRead(0) }()
	for i := 0; i < 2; i++ {
		select {
		case out := <-done:
			if !errors.Is(out.Err, ErrUnavailable) {
				t.Fatalf("isolated node: want ErrUnavailable, got %+v", out)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("degraded operation hung")
		}
	}
	if got := a.health.views[0].mode; got != ModeUnavailable {
		t.Fatalf("mode: %v", got)
	}
}

// TestAsyncDetectorMatchesDeterministic runs the same failure script
// through both runtimes' detectors and compares the reports.
func TestAsyncDetectorMatchesDeterministic(t *testing.T) {
	g := graph.Complete(5)
	det, _ := New(graph.NewState(g, nil), quorum.Majority(5))
	det.EnableSelfHealing(DefaultHealthConfig())
	asy, err := NewAsync(graph.NewState(g, nil), quorum.Majority(5))
	if err != nil {
		t.Fatal(err)
	}
	defer asy.Close()
	asy.EnableSelfHealing(DefaultHealthConfig())

	script := []func(){
		func() {},
		func() { det.FailSite(2); asy.FailSite(2) },
		func() {},
		func() {},
		func() { det.RepairSite(2); asy.RepairSite(2) },
		func() {},
		func() { det.FailLink(0); asy.FailLink(0) },
		func() {},
		func() {},
	}
	for step, mutate := range script {
		mutate()
		for x := 0; x < 5; x++ {
			rd := det.DaemonStep(x)
			ra := asy.DaemonStep(x)
			if rd.Mode != ra.Mode || rd.ReachableVotes != ra.ReachableVotes ||
				len(rd.Suspected) != len(ra.Suspected) ||
				rd.Triggered != ra.Triggered || rd.Attempted != ra.Attempted ||
				rd.Reassigned != ra.Reassigned {
				t.Fatalf("step %d node %d: deterministic %+v vs async %+v", step, x, rd, ra)
			}
		}
	}
	if dc, ac := det.HealthCounters(), asy.HealthCounters(); dc != ac {
		t.Fatalf("counters diverge:\n det %+v\n asy %+v", dc, ac)
	}
}

func TestModeStringAndConfigNormalize(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeHealthy: "healthy", ModeReadOnly: "read-only",
		ModeWriteOnly: "write-only", ModeUnavailable: "unavailable",
	} {
		if m.String() != want {
			t.Fatalf("Mode(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
	var zero HealthConfig
	n := zero.normalize()
	if !reflect.DeepEqual(n, DefaultHealthConfig()) {
		t.Fatalf("zero config must normalize to defaults: %+v", n)
	}
	partial := HealthConfig{Hysteresis: 0.05}
	if got := partial.normalize(); got.Hysteresis != 0.05 || got.Alpha != DefaultHealthConfig().Alpha {
		t.Fatalf("partial normalize: %+v", got)
	}
}

// TestSelfHealingRequiresEnable: daemon entry points panic loudly rather
// than silently doing nothing when self-healing was never attached.
func TestSelfHealingRequiresEnable(t *testing.T) {
	g := graph.Complete(3)
	c, _ := New(graph.NewState(g, nil), quorum.Majority(3))
	defer func() {
		if recover() == nil {
			t.Fatal("DaemonStep without EnableSelfHealing must panic")
		}
	}()
	c.DaemonStep(0)
}
