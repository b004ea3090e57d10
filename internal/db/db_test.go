package db

import (
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
)

func newDB(t *testing.T, n int) (*Database, *graph.State) {
	t.Helper()
	st := graph.NewState(graph.Ring(n), nil)
	return New(st), st
}

func TestCreateAndBasicOps(t *testing.T) {
	d, _ := newDB(t, 9)
	if err := d.Create("accounts", quorum.Majority(9)); err != nil {
		t.Fatal(err)
	}
	if err := d.Create("accounts", quorum.Majority(9)); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := d.Create("inventory", quorum.ReadOneWriteAll(9)); err != nil {
		t.Fatal(err)
	}
	names := d.Names()
	if len(names) != 2 || names[0] != "accounts" || names[1] != "inventory" {
		t.Fatalf("names %v", names)
	}
	ok, err := d.Write("accounts", 0, 500)
	if err != nil || !ok {
		t.Fatalf("write: %v %v", ok, err)
	}
	v, ok, err := d.Read("accounts", 5)
	if err != nil || !ok || v != 500 {
		t.Fatalf("read: %d %v %v", v, ok, err)
	}
	// Objects are independent: inventory still holds its initial value.
	v, ok, err = d.Read("inventory", 2)
	if err != nil || !ok || v != 0 {
		t.Fatalf("inventory read: %d %v %v", v, ok, err)
	}
}

func TestUnknownObjectErrors(t *testing.T) {
	d, _ := newDB(t, 5)
	if _, _, err := d.Read("nope", 0); err == nil {
		t.Fatal("read of unknown object")
	}
	if _, err := d.Write("nope", 0, 1); err == nil {
		t.Fatal("write of unknown object")
	}
	if _, err := d.Stats("nope"); err == nil {
		t.Fatal("stats of unknown object")
	}
	if err := d.EnableDynamic("nope", 0.5, 0); err == nil {
		t.Fatal("dynamic on unknown object")
	}
}

func TestStatsTracking(t *testing.T) {
	d, st := newDB(t, 5)
	if err := d.Create("x", quorum.Assignment{QR: 2, QW: 4}); err != nil {
		t.Fatal(err)
	}
	d.Write("x", 0, 1)
	d.Read("x", 1)
	d.Read("x", 2)
	st.FailSite(3)
	st.FailSite(4) // 3 votes left: reads ok, writes denied
	d.Write("x", 0, 2)
	s, err := d.Stats("x")
	if err != nil {
		t.Fatal(err)
	}
	if s.ReadsGranted != 2 || s.WritesGranted != 1 || s.WritesDenied != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.ReadFraction() != 0.5 {
		t.Fatalf("read fraction %g", s.ReadFraction())
	}
	if s.Availability() != 0.75 {
		t.Fatalf("availability %g", s.Availability())
	}
	var zero ObjectStats
	if zero.ReadFraction() != 0 || zero.Availability() != 0 {
		t.Fatal("zero stats")
	}
}

func TestPerObjectAssignmentsIndependent(t *testing.T) {
	d, _ := newDB(t, 9)
	d.Create("hot", quorum.Majority(9))
	d.Create("cold", quorum.Majority(9))
	if err := d.objects["hot"].obj.Reassign(0, quorum.ReadOneWriteAll(9)); err != nil {
		t.Fatal(err)
	}
	as := d.Assignments(0)
	if as["hot"].QR != 1 || as["cold"].QR != 4 {
		t.Fatalf("assignments %v", as)
	}
}

func TestTickReassignsPerWorkload(t *testing.T) {
	// Two objects on one network: one read-heavy, one write-heavy. After a
	// training period the dynamic managers should install different
	// assignments: small q_r for the read-heavy object, large for the
	// write-heavy one.
	st := graph.NewState(graph.Ring(9), nil)
	d := New(st)
	if err := d.Create("readHot", quorum.Majority(9)); err != nil {
		t.Fatal(err)
	}
	if err := d.Create("writeHot", quorum.Majority(9)); err != nil {
		t.Fatal(err)
	}
	if err := d.EnableDynamic("readHot", 0.5, 0.0); err != nil {
		t.Fatal(err)
	}
	if err := d.EnableDynamic("writeHot", 0.5, 0.0); err != nil {
		t.Fatal(err)
	}
	src := rng.New(44)
	for step := 0; step < 4000; step++ {
		// Mostly-up network with occasional failures (repairs dominate so
		// write-quorum components exist often enough to allow QR installs).
		if src.Intn(12) == 0 {
			if src.Bernoulli(0.5) {
				st.FailSite(src.Intn(9))
			} else {
				st.FailLink(src.Intn(9))
			}
		}
		if src.Intn(3) == 0 {
			if src.Bernoulli(0.5) {
				st.RepairSite(src.Intn(9))
			} else {
				st.RepairLink(src.Intn(9))
			}
		}
		site := src.Intn(9)
		if src.Bernoulli(0.95) {
			d.Read("readHot", site)
		} else {
			d.Write("readHot", site, int64(step))
		}
		if src.Bernoulli(0.05) {
			d.Read("writeHot", site)
		} else {
			d.Write("writeHot", site, int64(step))
		}
		if step%100 == 99 {
			if _, err := d.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.SetAll(true)
	as := d.Assignments(0)
	if as["readHot"].QR >= as["writeHot"].QR {
		t.Fatalf("expected readHot q_r < writeHot q_r, got %v vs %v",
			as["readHot"], as["writeHot"])
	}
	// Serializability spot check across objects.
	for _, name := range d.Names() {
		obj := d.objects[name].obj
		if _, stamp, ok := obj.Read(0); ok && stamp != obj.LatestStamp() {
			t.Fatalf("%s: stale read after storm", name)
		}
	}
}

func TestTickWithoutDynamicIsNoop(t *testing.T) {
	d, _ := newDB(t, 5)
	d.Create("x", quorum.Majority(5))
	n, err := d.Tick()
	if err != nil || n != 0 {
		t.Fatalf("tick: %d %v", n, err)
	}
}
