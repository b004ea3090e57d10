package check

import (
	"strings"
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/replica"
)

func TestExploreQRPath3(t *testing.T) {
	g := graph.Path(3)
	states, err := ExploreQR(g, quorum.Majority(3), DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	// For T=3 both candidate assignments coincide at (1,3), so the space
	// is small but must still cover all topology states (2^5 = 32) times
	// the stamp/version combinations.
	if states < 64 {
		t.Fatalf("suspiciously small state space: %d", states)
	}
	t.Logf("path3: %d states verified", states)
}

func TestExploreQRTriangle(t *testing.T) {
	g := graph.Ring(3)
	states, err := ExploreQR(g, quorum.Majority(3), DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("triangle: %d states verified", states)
}

func TestExploreQRStar4(t *testing.T) {
	g := graph.Star(4)
	cfg := DefaultConfig(4)
	states, err := ExploreQR(g, quorum.Majority(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("star4: %d states verified", states)
}

func TestExploreQRPath4WithReassignments(t *testing.T) {
	if testing.Short() {
		t.Skip("state space ~10^5")
	}
	g := graph.Path(4)
	cfg := DefaultConfig(4)
	states, err := ExploreQR(g, quorum.Majority(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("path4 with reassignment: %d states verified", states)
}

func TestStateBudgetEnforced(t *testing.T) {
	g := graph.Ring(4)
	cfg := DefaultConfig(4)
	cfg.MaxStates = 50
	_, err := ExploreQR(g, quorum.Majority(4), cfg)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("expected budget error, got %v", err)
	}
}

// brokenProtocol grants reads with one vote fewer than the effective read
// quorum — violating condition 1 (q_r + q_w > T). The checker must find a
// reads-stale counterexample.
type brokenProtocol struct{ obj *replica.Object }

func (b brokenProtocol) Clone(st *graph.State) Protocol {
	return brokenProtocol{obj: b.obj.Clone(st)}
}

func (b brokenProtocol) Read(x int) (int64, bool) {
	st := b.obj.State()
	if !st.SiteUp(x) {
		return 0, false
	}
	a, _, _ := b.obj.EffectiveAssignment(x)
	// Off-by-one relaxation: accept q_r − 1 votes.
	if st.VotesAt(x) < a.QR-1 {
		return 0, false
	}
	// Return the freshest stamp reachable in the component (the sync the
	// EffectiveAssignment call performed makes every local copy current
	// within the component).
	return b.obj.Copy(x).Stamp, true
}

func (b brokenProtocol) Write(x int, v int64) bool { return b.obj.Write(x, v) }
func (b brokenProtocol) Reassign(x int, a quorum.Assignment) error {
	return b.obj.Reassign(x, a)
}
func (b brokenProtocol) LatestStamp() int64 { return b.obj.LatestStamp() }
func (b brokenProtocol) WriteCapableComponents() int {
	return b.obj.WriteCapableComponents()
}
func (b brokenProtocol) Copy(i int) quorum.Copy { return b.obj.Copy(i) }

func TestCheckerCatchesBrokenReadQuorum(t *testing.T) {
	// Needs T ≥ 5 so the majority assignment (2,4) has a write quorum
	// below T: a write can then leave one copy stale, and the broken
	// protocol lets that stale singleton read with a single vote.
	g := graph.Path(5)
	cfg := DefaultConfig(5)
	cfg.Assignments = nil // keep the space small; the static bug suffices
	_, err := Explore(g, func(st *graph.State) Protocol {
		obj, e := replica.NewObject(st, quorum.Majority(5))
		if e != nil {
			panic(e)
		}
		return brokenProtocol{obj: obj}
	}, cfg)
	if err == nil {
		t.Fatal("checker missed the relaxed read quorum bug")
	}
	v, ok := err.(*Violation)
	if !ok {
		t.Fatalf("unexpected error type: %v", err)
	}
	if !strings.Contains(v.Invariant, "I2") {
		t.Fatalf("expected a reads-latest violation, got %v", v)
	}
	t.Logf("counterexample: %v", v)
}

// opaqueQR is the real protocol behind a type the explorer does not know:
// it embeds QRAdapter without being one, and keeps its own type across
// Clone.
type opaqueQR struct{ QRAdapter }

func (o opaqueQR) Clone(st *graph.State) Protocol {
	return opaqueQR{QRAdapter{Obj: o.Obj.Clone(st)}}
}

// TestVersionCapAppliesToAnyProtocol: the version cap reads the copies every
// Protocol exposes, so a protocol that is not QRAdapter stops at the cap
// too and visits exactly QRAdapter's state space, instead of running on
// until MaxStates.
func TestVersionCapAppliesToAnyProtocol(t *testing.T) {
	g := graph.Path(3)
	cfg := DefaultConfig(3)
	cfg.VersionCap = 1
	cfg.MaxStates = 20_000
	mk := func(st *graph.State) *replica.Object {
		obj, err := replica.NewObject(st, quorum.Majority(3))
		if err != nil {
			panic(err)
		}
		return obj
	}
	want, err := Explore(g, func(st *graph.State) Protocol { return QRAdapter{Obj: mk(st)} }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Explore(g, func(st *graph.State) Protocol { return opaqueQR{QRAdapter{Obj: mk(st)}} }, cfg)
	if err != nil || got != want {
		t.Fatalf("opaque protocol visited %d states (err %v), QRAdapter %d", got, err, want)
	}
}
