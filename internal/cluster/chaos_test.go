package cluster

import (
	"errors"
	"reflect"
	"testing"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/history"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
)

// chaosMixes are the fault mixtures every safety test must survive:
// drop-heavy, duplicate-heavy, reorder+delay, and coordinator crashes.
var chaosMixes = []string{"drop", "dup", "reorder-delay", "crash"}

func newChaosCluster(t *testing.T, n int, planSeed uint64, mixName string) (*Cluster, *faults.Plan, *graph.State, int) {
	t.Helper()
	g := graph.Complete(n)
	st := graph.NewState(g, nil)
	c, err := New(st, quorum.Majority(n))
	if err != nil {
		t.Fatal(err)
	}
	mix, err := faults.Named(mixName)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.NewPlan(planSeed, mix)
	c.EnableChaos(plan)
	return c, plan, st, g.M()
}

// TestChaosClusterSafety floods the deterministic runtime with faults —
// thousands of seeded operations per mix — and requires that the history
// of completed operations is one-copy serializable every time. Faults may
// deny operations; they must never corrupt them.
func TestChaosClusterSafety(t *testing.T) {
	const n, steps = 7, 1500
	for _, mixName := range chaosMixes {
		t.Run(mixName, func(t *testing.T) {
			for seed := uint64(1); seed <= 2; seed++ {
				c, plan, _, links := newChaosCluster(t, n, 1000*seed+7, mixName)
				if seed == 2 {
					// Exercise the wire codec under chaos too.
					c.SetWireMode(true)
				}
				run := RunChaos(c, plan, 77*seed+1, steps, n, links)
				if err := run.Log.Check(); err != nil {
					t.Fatalf("seed %d: %v\nrun: %v", seed, err, run)
				}
				if run.GrantedReads == 0 || run.GrantedWrites == 0 {
					t.Fatalf("seed %d: no granted work at all (%v) — harness is vacuous", seed, run)
				}
			}
		})
	}
}

// TestChaosClusterCountersReflectMix checks that each mix actually injects
// the faults it advertises — a safety test over a transport that injects
// nothing would prove nothing.
func TestChaosClusterCountersReflectMix(t *testing.T) {
	const n, steps = 7, 1200
	c, plan, _, links := newChaosCluster(t, n, 42, "drop")
	run := RunChaos(c, plan, 9, steps, n, links)
	if run.Counters.MsgDropped == 0 {
		t.Fatal("drop mix injected no drops")
	}
	if run.Counters.Timeouts == 0 || run.Counters.Retries == 0 {
		t.Fatalf("drop mix caused no timeouts/retries: %+v", run.Counters)
	}

	c, plan, _, links = newChaosCluster(t, n, 42, "dup")
	run = RunChaos(c, plan, 9, steps, n, links)
	if run.Counters.MsgDuplicated == 0 {
		t.Fatal("dup mix injected no duplicates")
	}

	c, plan, _, links = newChaosCluster(t, n, 42, "reorder-delay")
	run = RunChaos(c, plan, 9, steps, n, links)
	if run.Counters.MsgReordered == 0 || run.Counters.MsgDelayed == 0 {
		t.Fatalf("reorder-delay mix injected nothing: %+v", run.Counters)
	}

	c, plan, _, links = newChaosCluster(t, n, 42, "crash")
	run = RunChaos(c, plan, 9, steps, n, links)
	if run.Counters.Crashes == 0 || run.Counters.Recoveries == 0 {
		t.Fatalf("crash mix caused no crash/recovery cycles: %+v", run.Counters)
	}
}

// TestChaosReproducible: the same (plan seed, schedule seed) pair must
// reproduce the identical fault schedule, operation outcomes, and counters
// on the deterministic runtime — the property that makes chaos failures
// debuggable.
func TestChaosReproducible(t *testing.T) {
	const n, steps = 7, 800
	for _, mixName := range chaosMixes {
		runs := make([]*ChaosRun, 2)
		for i := range runs {
			c, plan, _, links := newChaosCluster(t, n, 31337, mixName)
			runs[i] = RunChaos(c, plan, 555, steps, n, links)
		}
		if !reflect.DeepEqual(runs[0].Results, runs[1].Results) {
			t.Fatalf("mix %s: same seed produced different outcomes", mixName)
		}
		if runs[0].Counters != runs[1].Counters {
			t.Fatalf("mix %s: same seed produced different counters:\n%+v\n%+v",
				mixName, runs[0].Counters, runs[1].Counters)
		}
	}
}

// TestChaosTypedErrors spot-checks the error taxonomy: a coordinator cut
// off from a quorum with all replies arriving gets ErrNoQuorum (futile —
// no retries); one that lost replies to the transport gets ErrTimeout
// after exhausting retries.
func TestChaosTypedErrors(t *testing.T) {
	// Clean no-quorum: no message faults, coordinator isolated by link cuts.
	g := graph.Complete(4)
	st := graph.NewState(g, nil)
	c, err := New(st, quorum.Majority(4))
	if err != nil {
		t.Fatal(err)
	}
	c.EnableChaos(faults.NewPlan(1, faults.Mix{Name: "none"}))
	for l := 0; l < g.M(); l++ {
		st.FailLink(l)
	}
	out := c.ChaosWrite(0, 1)
	if !errors.Is(out.Err, ErrNoQuorum) {
		t.Fatalf("isolated write: got %v, want ErrNoQuorum", out.Err)
	}
	if out.Attempts != 1 {
		t.Fatalf("no-quorum must not retry, took %d attempts", out.Attempts)
	}

	// Timeout: certain drop of every message.
	st2 := graph.NewState(graph.Complete(4), nil)
	c2, err := New(st2, quorum.Majority(4))
	if err != nil {
		t.Fatal(err)
	}
	c2.EnableChaos(faults.NewPlan(1, faults.Mix{Name: "all-drop", Drop: 1}))
	out = c2.ChaosWrite(0, 1)
	if !errors.Is(out.Err, ErrTimeout) {
		t.Fatalf("all-drop write: got %v, want ErrTimeout", out.Err)
	}
	if out.Attempts != retryAttempts {
		t.Fatalf("timeout must exhaust retries: %d attempts", out.Attempts)
	}
	if out.BackoffTicks == 0 {
		t.Fatal("retries accumulated no backoff")
	}
}

// TestChaosCrashRecovery walks the crash-recovery contract end to end: a
// crashed coordinator keeps its durable copy state, the surviving
// component reassigns while it is down, and on recovery it re-learns the
// newer assignment through the ordinary sync path (the paper's
// version-number safety argument).
func TestChaosCrashRecovery(t *testing.T) {
	g := graph.Complete(5)
	st := graph.NewState(g, nil)
	c, err := New(st, quorum.Majority(5))
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: fault-free plan, commit a value through node 0.
	c.EnableChaos(faults.NewPlan(1, faults.Mix{Name: "none"}))
	if out := c.ChaosWrite(0, 42); !out.Granted {
		t.Fatalf("fault-free write denied: %v", out.Err)
	}
	stampBefore, versionBefore := c.NodeStamp(0), c.NodeVersion(0)

	// Phase 2: guaranteed crash on the next write from node 0.
	c.EnableChaos(faults.NewPlan(7, faults.Mix{Name: "always-crash", Crash: 1}))
	out := c.ChaosWrite(0, 99)
	if !errors.Is(out.Err, ErrCrashed) {
		t.Fatalf("got %v, want ErrCrashed", out.Err)
	}
	if got := c.Crashed(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("crashed set = %v, want [0]", got)
	}
	// Durable state survives the crash.
	if c.NodeStamp(0) < stampBefore || c.NodeVersion(0) != versionBefore {
		t.Fatalf("crash lost durable state: stamp %d (was %d), version %d (was %d)",
			c.NodeStamp(0), stampBefore, c.NodeVersion(0), versionBefore)
	}
	// A crashed coordinator cannot serve.
	if out := c.ChaosRead(0); !errors.Is(out.Err, ErrCoordinatorDown) {
		t.Fatalf("read at crashed node: got %v, want ErrCoordinatorDown", out.Err)
	}

	// Phase 3: the surviving majority reassigns while node 0 is down.
	newAssign := quorum.Assignment{QR: 2, QW: 4}
	if out := c.ChaosReassign(1, newAssign); !out.Granted {
		t.Fatalf("reassign among survivors denied: %v", out.Err)
	}

	// Phase 4: recovery rejoins with durable state and re-learns the newer
	// assignment from the first vote round it runs.
	if !c.Recover(0) {
		t.Fatal("Recover(0) found nothing to recover")
	}
	if c.Recover(0) {
		t.Fatal("double recovery")
	}
	c.EnableChaos(faults.NewPlan(1, faults.Mix{Name: "none"}))
	rd := c.ChaosRead(0)
	if !rd.Granted {
		t.Fatalf("read after recovery denied: %v", rd.Err)
	}
	if rd.Value != 42 {
		t.Fatalf("read after recovery returned %d, want 42", rd.Value)
	}
	if got, _, _ := c.EffectiveAssignment(0); got != newAssign {
		t.Fatalf("recovered node did not re-learn assignment: %+v", got)
	}
	if c.NodeVersion(0) != versionBefore+1 {
		t.Fatalf("recovered node version %d, want %d", c.NodeVersion(0), versionBefore+1)
	}
}

// TestChaosMidApplyResidueSurfaces forces a crash mid-apply and checks the
// two legal fates of the residue: it may surface in a later read (and from
// then on is the committed value), or be superseded — but the history must
// stay serializable either way, with the residue declared indeterminate.
func TestChaosMidApplyResidueSurfaces(t *testing.T) {
	surfaced := false
	for seed := uint64(1); seed < 60 && !surfaced; seed++ {
		g := graph.Complete(5)
		st := graph.NewState(g, nil)
		c, err := New(st, quorum.Majority(5))
		if err != nil {
			t.Fatal(err)
		}
		log := &history.Log{}
		c.EnableChaos(faults.NewPlan(seed, faults.Mix{Name: "always-crash", Crash: 1}))
		out := c.ChaosWrite(0, 1)
		if !errors.Is(out.Err, ErrCrashed) {
			t.Fatalf("seed %d: got %v, want ErrCrashed", seed, out.Err)
		}
		for _, r := range out.Residue {
			log.RecordIndeterminateWrite(0, r.Value, r.Stamp, 0)
		}
		log.RecordWrite(0, false, 1, 0, 0)
		// Fault-free reads from the survivors; if the mid-apply residue
		// reached any of them, read repair must surface it consistently.
		c.EnableChaos(faults.NewPlan(1, faults.Mix{Name: "none"}))
		for x := 1; x < 5; x++ {
			rd := c.ChaosRead(x)
			if !rd.Granted {
				t.Fatalf("seed %d: survivor read denied: %v", seed, rd.Err)
			}
			log.RecordRead(x, true, rd.Value, rd.Stamp, float64(x))
			if len(out.Residue) > 0 && rd.Stamp == out.Residue[0].Stamp {
				surfaced = true
			}
		}
		if err := log.Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if !surfaced {
		t.Fatal("no seed produced a surfacing mid-apply residue; crash-point coverage is broken")
	}
}

// TestUnhardenedProtocolViolatesUnderChaos demonstrates why the hardening
// exists: the baseline Read/Write path (which assumes reliable exactly-
// once delivery) counts duplicated vote replies twice, grants writes
// without a real quorum, and produces observable one-copy-serializability
// violations under the same transport the hardened path survives.
func TestUnhardenedProtocolViolatesUnderChaos(t *testing.T) {
	mix := faults.Mix{Name: "dup-storm", Drop: 0.10, Duplicate: 0.60}
	for seed := uint64(1); seed <= 40; seed++ {
		g := graph.Complete(5)
		st := graph.NewState(g, nil)
		c, err := New(st, quorum.Majority(5))
		if err != nil {
			t.Fatal(err)
		}
		c.EnableChaos(faults.NewPlan(seed, mix))
		src := rng.New(seed * 31)
		log := &history.Log{}
		for step := 0; step < 400; step++ {
			c.chaos.op++ // baseline ops don't advance the fault schedule themselves
			x := src.Intn(5)
			switch a := src.Intn(100); {
			case a < 35:
				value := int64(step) + 1
				if c.Write(x, value) {
					log.RecordWrite(x, true, value, c.NodeStamp(x), float64(step))
				} else {
					log.RecordWrite(x, false, value, 0, float64(step))
				}
			case a < 70:
				v, s, ok := c.Read(x)
				log.RecordRead(x, ok, v, s, float64(step))
			default:
				l := src.Intn(g.M())
				if src.Intn(2) == 0 {
					st.FailLink(l)
				} else {
					st.RepairLink(l)
				}
			}
		}
		if err := log.Check(); err != nil {
			t.Logf("seed %d: baseline protocol violated 1SR as expected: %v", seed, err)
			return
		}
	}
	t.Fatal("no seed produced a violation in the unhardened protocol; either the " +
		"transport injects too little or the demonstration is broken")
}

// TestChaosWriteResidueOnPartialApply: hardening trades availability for
// safety — a write whose vote round succeeds but whose apply phase cannot
// be confirmed on a write quorum must come back indeterminate with a
// residue, never as a silent success.
func TestChaosWriteResidueOnPartialApply(t *testing.T) {
	// Heavy drops make unconfirmed applies common; scan seeds for one.
	mix := faults.Mix{Name: "heavy-drop", Drop: 0.45}
	for seed := uint64(1); seed <= 80; seed++ {
		g := graph.Complete(5)
		st := graph.NewState(g, nil)
		c, err := New(st, quorum.Majority(5))
		if err != nil {
			t.Fatal(err)
		}
		c.EnableChaos(faults.NewPlan(seed, mix))
		out := c.ChaosWrite(0, 7)
		if errors.Is(out.Err, ErrIndeterminate) {
			if len(out.Residue) == 0 {
				t.Fatalf("seed %d: indeterminate write carries no residue", seed)
			}
			if out.Granted {
				t.Fatalf("seed %d: indeterminate write also granted", seed)
			}
			if got := c.ChaosCounters().Indeterminate; got != 1 {
				t.Fatalf("seed %d: Indeterminate counter = %d, want 1", seed, got)
			}
			return
		}
	}
	t.Fatal("no seed produced an indeterminate write under 45% drop; ack accounting is suspect")
}
