package replica

import (
	"testing"

	"quorumkit/internal/core"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
)

// feedEstimator fills the estimator with a deterministic observation
// pattern: every site sees the full vote total with probability pFull,
// otherwise a small component.
func feedEstimator(est *core.Estimator, n, full, small int, pFull float64, src *rng.Source) {
	for i := 0; i < n; i++ {
		for k := 0; k < 2000; k++ {
			if src.Bernoulli(pFull) {
				est.Observe(i, full)
			} else {
				est.Observe(i, small)
			}
		}
	}
}

func TestManagerInstallsOptimal(t *testing.T) {
	g := graph.Ring(9)
	st := graph.NewState(g, nil)
	o, err := NewObject(st, quorum.Majority(9)) // (4, 6)
	if err != nil {
		t.Fatal(err)
	}
	est := core.NewEstimator(9, 9)
	// Observations: components are almost always small (3 votes), rarely
	// full. With α=1 (pure reads) the optimum is q_r ≤ 3, far better than
	// the incumbent majority assignment.
	feedEstimator(est, 9, 9, 3, 0.1, rng.New(5))
	m := NewManager(o, est, 1.0)
	changed, err := m.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("manager should have reassigned")
	}
	a, ver, _ := o.EffectiveAssignment(0)
	if a.QR > 3 {
		t.Fatalf("installed %v, want q_r ≤ 3", a)
	}
	if ver != 2 {
		t.Fatalf("version %d", ver)
	}
	if m.Reassignments() != 1 || m.Attempts() != 1 {
		t.Fatalf("counters: %d/%d", m.Reassignments(), m.Attempts())
	}
	// Second tick: already optimal, no change.
	changed, err = m.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("manager reassigned twice for the same optimum")
	}
}

func TestManagerHysteresisBlocksNoise(t *testing.T) {
	g := graph.Ring(9)
	st := graph.NewState(g, nil)
	o, err := NewObject(st, quorum.Majority(9))
	if err != nil {
		t.Fatal(err)
	}
	est := core.NewEstimator(9, 9)
	// Components always full: every assignment in the family achieves
	// availability 1, so any "improvement" is zero.
	feedEstimator(est, 9, 9, 9, 1, rng.New(6))
	m := NewManager(o, est, 0.5)
	m.Hysteresis = 0.01
	changed, err := m.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("manager reassigned with zero predicted improvement")
	}
}

func TestManagerNoWriteQuorumNoChange(t *testing.T) {
	g := graph.Path(5)
	st := graph.NewState(g, nil)
	o, err := NewObject(st, quorum.Assignment{QR: 2, QW: 4})
	if err != nil {
		t.Fatal(err)
	}
	st.FailLink(g.EdgeIndex(1, 2)) // no component holds 4 votes
	est := core.NewEstimator(5, 5)
	feedEstimator(est, 5, 5, 2, 0.2, rng.New(7))
	m := NewManager(o, est, 1.0)
	changed, err := m.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("reassignment without a write-quorum component")
	}
}

func TestManagerWriteConstraint(t *testing.T) {
	g := graph.Ring(9)
	st := graph.NewState(g, nil)
	o, err := NewObject(st, quorum.Majority(9))
	if err != nil {
		t.Fatal(err)
	}
	est := core.NewEstimator(9, 9)
	// Mostly 5-vote components, sometimes full: unconstrained α=1 optimum
	// would be q_r=1 (paired q_w=9, near-zero write availability).
	feedEstimator(est, 9, 9, 5, 0.3, rng.New(8))
	m := NewManager(o, est, 1.0)
	m.MinWrite = 0.25
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	a, _, _ := o.EffectiveAssignment(0)
	model, err := est.Model(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if model.Availability(0, a.QR) < 0.25 {
		t.Fatalf("installed %v violates write floor: %g", a, model.Availability(0, a.QR))
	}
}

func TestManagerSetAlphaPanics(t *testing.T) {
	g := graph.Ring(5)
	st := graph.NewState(g, nil)
	o, _ := NewObject(st, quorum.Majority(5))
	m := NewManager(o, core.NewEstimator(5, 5), 0.5)
	m.SetAlpha(0.9) // fine
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.SetAlpha(2)
}

// TestManagerEndToEndSafety runs the manager inside a random failure storm
// with interleaved reads/writes, asserting serializability holds while the
// quorum assignment chases a shifting read-write ratio.
func TestManagerEndToEndSafety(t *testing.T) {
	g := graph.Complete(8)
	st := graph.NewState(g, nil)
	o, err := NewObject(st, quorum.Majority(8))
	if err != nil {
		t.Fatal(err)
	}
	est := core.NewEstimator(8, 8)
	m := NewManager(o, est, 0.9)
	m.Hysteresis = 0.005
	src := rng.New(321)
	var expect int64
	for step := 0; step < 8000; step++ {
		if step == 4000 {
			m.SetAlpha(0.1) // workload shifts write-heavy mid-run
		}
		switch src.Intn(8) {
		case 0:
			st.FailSite(src.Intn(8))
		case 1:
			st.RepairSite(src.Intn(8))
		case 2:
			st.FailLink(src.Intn(g.M()))
		case 3:
			st.RepairLink(src.Intn(g.M()))
		case 4:
			site := src.Intn(8)
			est.Observe(site, st.VotesAt(site))
			if o.Write(site, int64(step)) {
				expect = int64(step)
			}
		case 5, 6:
			site := src.Intn(8)
			est.Observe(site, st.VotesAt(site))
			v, stamp, ok := o.Read(site)
			if ok && stamp != o.LatestStamp() {
				t.Fatalf("step %d: stale read stamp", step)
			}
			if ok && o.LatestStamp() > 0 && v != expect {
				t.Fatalf("step %d: stale read value", step)
			}
		case 7:
			if _, err := m.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		if o.WriteCapableComponents() > 1 {
			t.Fatalf("step %d: multiple write-capable components", step)
		}
	}
	if m.Reassignments() == 0 {
		t.Fatal("manager never reassigned during the storm")
	}
}
