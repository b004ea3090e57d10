package coterie

import (
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/replica"
	"quorumkit/internal/rng"
)

func TestCoterieObjectBasic(t *testing.T) {
	g := graph.Grid(3, 3)
	st := graph.NewState(g, nil)
	sys, err := Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewObject(st, sys)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Write(0, 42) {
		t.Fatal("write denied all-up")
	}
	v, stamp, ok := o.Read(8)
	if !ok || v != 42 || stamp != o.LatestStamp() {
		t.Fatalf("read (%d,%d,%v)", v, stamp, ok)
	}
}

func TestCoterieObjectGridSemantics(t *testing.T) {
	// Isolate the middle row {3,4,5} of the grid: it covers every column,
	// so reads are granted there, but it contains no full column, so
	// writes are denied.
	g := graph.Grid(3, 3)
	st := graph.NewState(g, nil)
	sys, err := Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewObject(st, sys)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Write(4, 7) {
		t.Fatal("initial write denied")
	}
	// Cut the row from the rest: fail vertical links around row 1.
	for _, pair := range [][2]int{{0, 3}, {3, 6}, {1, 4}, {4, 7}, {2, 5}, {5, 8}} {
		st.FailLink(g.EdgeIndex(pair[0], pair[1]))
	}
	if v, _, ok := o.Read(4); !ok || v != 7 {
		t.Fatalf("row read (%d,%v); a row covers every column", v, ok)
	}
	if o.Write(4, 8) {
		t.Fatal("row write granted without a full column")
	}
	// The other fragment {0,1,2,6,7,8} (two rows) can read (covers all
	// columns) but also has no full column.
	if _, _, ok := o.Read(0); !ok {
		t.Fatal("two-row fragment read denied")
	}
	if o.Write(0, 9) {
		t.Fatal("two-row fragment write granted")
	}
}

func TestCoterieObjectDownSite(t *testing.T) {
	st := graph.NewState(graph.Complete(7), nil)
	o, err := NewObject(st, FanoSystem())
	if err != nil {
		t.Fatal(err)
	}
	st.FailSite(3)
	if _, _, ok := o.Read(3); ok {
		t.Fatal("down site read")
	}
	if o.Write(3, 1) {
		t.Fatal("down site write")
	}
}

// TestCoterieObjectMatchesVoteObject: with a vote-induced system the
// coterie object and the vote-based replica object make identical
// decisions under an identical schedule.
func TestCoterieObjectMatchesVoteObject(t *testing.T) {
	g := graph.Ring(7)
	a := quorum.Assignment{QR: 3, QW: 5}
	sys, err := FromQuorums(quorum.UniformVotes(7), a)
	if err != nil {
		t.Fatal(err)
	}
	stC := graph.NewState(g, nil)
	stV := graph.NewState(g, nil)
	co, err := NewObject(stC, sys)
	if err != nil {
		t.Fatal(err)
	}
	vo, err := replica.NewObject(stV, a)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(50)
	for step := 0; step < 4000; step++ {
		switch src.Intn(8) {
		case 0:
			i := src.Intn(7)
			stC.FailSite(i)
			stV.FailSite(i)
		case 1:
			i := src.Intn(7)
			stC.RepairSite(i)
			stV.RepairSite(i)
		case 2:
			l := src.Intn(g.M())
			stC.FailLink(l)
			stV.FailLink(l)
		case 3:
			l := src.Intn(g.M())
			stC.RepairLink(l)
			stV.RepairLink(l)
		case 4, 5:
			x := src.Intn(7)
			gc := co.Write(x, int64(step))
			gv := vo.Write(x, int64(step))
			if gc != gv {
				t.Fatalf("step %d: write grants differ %v vs %v", step, gc, gv)
			}
		default:
			x := src.Intn(7)
			vc, sc, okc := co.Read(x)
			vv, sv, okv := vo.Read(x)
			if okc != okv || (okc && (vc != vv || sc != sv)) {
				t.Fatalf("step %d: reads differ (%d,%d,%v) vs (%d,%d,%v)",
					step, vc, sc, okc, vv, sv, okv)
			}
		}
	}
}

// TestCoterieObjectGridSafety: randomized storms on the grid protocol —
// one-copy semantics and the single-writer property must hold.
func TestCoterieObjectGridSafety(t *testing.T) {
	g := graph.Grid(3, 3)
	st := graph.NewState(g, nil)
	sys, err := Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewObject(st, sys)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(808)
	for step := 0; step < 8000; step++ {
		switch src.Intn(8) {
		case 0:
			st.FailSite(src.Intn(9))
		case 1:
			st.RepairSite(src.Intn(9))
		case 2:
			st.FailLink(src.Intn(g.M()))
		case 3:
			st.RepairLink(src.Intn(g.M()))
		case 4, 5:
			o.Write(src.Intn(9), int64(step))
		default:
			if _, stamp, ok := o.Read(src.Intn(9)); ok && stamp != o.LatestStamp() {
				t.Fatalf("step %d: stale read under the grid protocol", step)
			}
		}
		if wc := o.WriteCapableComponents(); wc > 1 {
			t.Fatalf("step %d: %d write-capable components", step, wc)
		}
	}
}

func TestCoterieObjectValidation(t *testing.T) {
	st := graph.NewState(graph.Ring(5), nil)
	bad := quorum.System{Read: quorum.Site(0), Write: quorum.Site(1)}
	if _, err := NewObject(st, bad); err == nil {
		t.Fatal("invalid system accepted")
	}
}
