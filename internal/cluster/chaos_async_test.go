package cluster

import (
	"errors"
	"testing"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

func newChaosAsync(t *testing.T, n int, planSeed uint64, mixName string) (*Async, *faults.Plan, int) {
	t.Helper()
	g := graph.Complete(n)
	st := graph.NewState(g, nil)
	a, err := NewAsync(st, quorum.Majority(n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	mix, err := faults.Named(mixName)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.NewPlan(planSeed, mix)
	a.EnableChaos(plan)
	return a, plan, g.M()
}

// TestChaosAsyncSafety runs the chaos harness against the concurrent
// runtime under every fault mix (the Makefile's check tier repeats this
// under -race). Same contract as the deterministic variant: faults may
// deny operations, the history must stay one-copy serializable.
func TestChaosAsyncSafety(t *testing.T) {
	const n, steps = 7, 1250
	for _, mixName := range chaosMixes {
		t.Run(mixName, func(t *testing.T) {
			a, plan, links := newChaosAsync(t, n, 5000+uint64(len(mixName)), mixName)
			run := RunChaos(a, plan, 99, steps, n, links)
			if err := run.Log.Check(); err != nil {
				t.Fatalf("%v\nrun: %v", err, run)
			}
			if run.GrantedReads == 0 || run.GrantedWrites == 0 {
				t.Fatalf("no granted work at all (%v) — harness is vacuous", run)
			}
		})
	}
}

// TestChaosAsyncCrashRecovery mirrors the deterministic crash-recovery
// walk on the concurrent runtime.
func TestChaosAsyncCrashRecovery(t *testing.T) {
	g := graph.Complete(5)
	st := graph.NewState(g, nil)
	a, err := NewAsync(st, quorum.Majority(5))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	a.EnableChaos(faults.NewPlan(1, faults.Mix{Name: "none"}))
	if out := a.ChaosWrite(0, 42); !out.Granted {
		t.Fatalf("fault-free write denied: %v", out.Err)
	}

	a.EnableChaos(faults.NewPlan(7, faults.Mix{Name: "always-crash", Crash: 1}))
	out := a.ChaosWrite(0, 99)
	if !errors.Is(out.Err, ErrCrashed) {
		t.Fatalf("got %v, want ErrCrashed", out.Err)
	}
	if got := a.Crashed(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("crashed set = %v, want [0]", got)
	}
	if out := a.ChaosRead(0); !errors.Is(out.Err, ErrCoordinatorDown) {
		t.Fatalf("read at crashed node: got %v, want ErrCoordinatorDown", out.Err)
	}

	newAssign := quorum.Assignment{QR: 2, QW: 4}
	if out := a.ChaosReassign(1, newAssign); !out.Granted {
		t.Fatalf("reassign among survivors denied: %v", out.Err)
	}

	if !a.Recover(0) {
		t.Fatal("Recover(0) found nothing to recover")
	}
	a.EnableChaos(faults.NewPlan(1, faults.Mix{Name: "none"}))
	rd := a.ChaosRead(0)
	if !rd.Granted || rd.Value != 42 {
		t.Fatalf("read after recovery: %+v, want granted value 42", rd)
	}
}
