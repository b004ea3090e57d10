package faults

import (
	"hash/fnv"
	"reflect"
	"testing"
)

func TestChurnDeterministic(t *testing.T) {
	cfg := ChurnConfig{SiteMTBF: 50, SiteMTTR: 10, LinkMTBF: 30, LinkMTTR: 20}
	a := NewChurn(7, 9, 9, cfg)
	b := NewChurn(7, 9, 9, cfg)
	for step := 0; step < 2000; step++ {
		ea := a.Step(float64(step))
		eb := b.Step(float64(step))
		if !reflect.DeepEqual(ea, eb) {
			t.Fatalf("step %d: schedules diverged: %v vs %v", step, ea, eb)
		}
	}
	// A different seed must produce a different schedule.
	c := NewChurn(8, 9, 9, cfg)
	same := true
	for step := 0; step < 2000 && same; step++ {
		if !reflect.DeepEqual(a.Step(float64(step+2000)), c.Step(float64(step+2000))) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical schedules")
	}
}

func TestChurnAlternatesAndBalances(t *testing.T) {
	// Events must strictly alternate fail/repair per element, and the
	// long-run down fraction must approach MTTR/(MTBF+MTTR).
	cfg := ChurnConfig{LinkMTBF: 40, LinkMTTR: 60}
	c := NewChurn(3, 0, 4, cfg)
	down := make([]bool, 4)
	downSteps, totalSteps := 0, 60000
	for step := 0; step < totalSteps; step++ {
		for _, e := range c.Step(float64(step)) {
			switch e.Kind {
			case LinkFail:
				if down[e.Index] {
					t.Fatalf("step %d: link %d failed while down", step, e.Index)
				}
				down[e.Index] = true
			case LinkRepair:
				if !down[e.Index] {
					t.Fatalf("step %d: link %d repaired while up", step, e.Index)
				}
				down[e.Index] = false
			default:
				t.Fatalf("unexpected site event %v with site churn disabled", e)
			}
		}
		for _, d := range down {
			if d {
				downSteps++
			}
		}
	}
	frac := float64(downSteps) / float64(totalSteps*4)
	want := cfg.LinkMTTR / (cfg.LinkMTBF + cfg.LinkMTTR)
	if frac < want-0.08 || frac > want+0.08 {
		t.Fatalf("down fraction %.3f, want about %.3f", frac, want)
	}
}

func TestChurnDisabled(t *testing.T) {
	c := NewChurn(1, 5, 5, ChurnConfig{})
	for step := 0; step < 1000; step++ {
		if ev := c.Step(float64(step)); len(ev) != 0 {
			t.Fatalf("disabled churn produced events %v", ev)
		}
	}
	s, l := c.DownCounts()
	if s != 0 || l != 0 {
		t.Fatalf("disabled churn holds %d sites, %d links down", s, l)
	}
}

func TestChurnConfigValidate(t *testing.T) {
	if err := (ChurnConfig{SiteMTBF: 10}).Validate(); err == nil {
		t.Fatal("MTBF without MTTR accepted")
	}
	if err := (ChurnConfig{LinkMTBF: -1, LinkMTTR: 1}).Validate(); err == nil {
		t.Fatal("negative MTBF accepted")
	}
	if err := (ChurnConfig{SiteMTBF: 10, SiteMTTR: 5}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChurnShockDisabledBitIdentical(t *testing.T) {
	// Adding the (unused) shock fields must not perturb the existing
	// seeded schedules: a config with shocks disabled replays the exact
	// event stream of the pre-shock model.
	base := ChurnConfig{SiteMTBF: 50, SiteMTTR: 10, LinkMTBF: 30, LinkMTTR: 20}
	withFields := base
	withFields.Regions = [][]int{{0, 1, 2}} // declared but inert: ShockMTBF == 0
	a := NewChurn(7, 9, 9, base)
	b := NewChurn(7, 9, 9, withFields)
	for step := 0; step < 3000; step++ {
		ea, eb := a.Step(float64(step)), b.Step(float64(step))
		if !reflect.DeepEqual(ea, eb) {
			t.Fatalf("step %d: shock-disabled schedule diverged: %v vs %v", step, ea, eb)
		}
	}
}

func TestChurnShockCorrelatedFailures(t *testing.T) {
	// With only shocks active (no per-site churn), every member of a
	// region fails and repairs in the same step, and the event stream
	// stays a legal alternation per site.
	cfg := ChurnConfig{
		Regions:   [][]int{{0, 1, 2}, {3, 4}},
		ShockMTBF: 40,
		ShockMTTR: 15,
	}
	c := NewChurn(5, 6, 0, cfg)
	down := make([]bool, 6)
	sawShock := false
	for step := 0; step < 20000; step++ {
		evs := c.Step(float64(step))
		// Group events by region: the members of one region must move
		// together when only shared shocks drive them.
		changed := map[int]ChurnKind{}
		for _, e := range evs {
			if down[e.Index] == (e.Kind == SiteFail) {
				t.Fatalf("step %d: site %d event %v does not alternate", step, e.Index, e.Kind)
			}
			down[e.Index] = e.Kind == SiteFail
			changed[e.Index] = e.Kind
		}
		for _, region := range cfg.Regions {
			k, any := changed[region[0]]
			for _, s := range region {
				k2, any2 := changed[s]
				if any != any2 || (any && k != k2) {
					t.Fatalf("step %d: region %v did not move as a unit: %v", step, region, evs)
				}
			}
			if any {
				sawShock = true
			}
		}
		if down[5] {
			t.Fatal("site 5 is in no region and must never fail")
		}
		sites, _ := c.DownCounts()
		want := 0
		for _, d := range down {
			if d {
				want++
			}
		}
		if sites != want {
			t.Fatalf("step %d: DownCounts sites = %d, want %d", step, sites, want)
		}
	}
	if !sawShock {
		t.Fatal("no shock ever fired")
	}
}

func TestChurnShockLayersOnBaseChurn(t *testing.T) {
	// With both processes active the effective stream must still be a
	// legal alternation, and shocks must visibly add correlated mass:
	// steps where all members of a region fail together.
	cfg := ChurnConfig{
		SiteMTBF:  200,
		SiteMTTR:  20,
		Regions:   [][]int{{0, 1, 2, 3}},
		ShockMTBF: 120,
		ShockMTTR: 30,
	}
	c := NewChurn(9, 8, 0, cfg)
	down := make([]bool, 8)
	groupFails := 0
	for step := 0; step < 30000; step++ {
		evs := c.Step(float64(step))
		fails := 0
		for _, e := range evs {
			if down[e.Index] == (e.Kind == SiteFail) {
				t.Fatalf("step %d: site %d event %v does not alternate", step, e.Index, e.Kind)
			}
			down[e.Index] = e.Kind == SiteFail
			if e.Kind == SiteFail && e.Index < 4 {
				fails++
			}
		}
		if fails >= 3 {
			groupFails++
		}
		if c.ActiveShocks() > 1 {
			t.Fatal("more active shocks than regions")
		}
	}
	if groupFails == 0 {
		t.Fatal("correlated layer never produced a near-simultaneous regional failure")
	}
}

func TestChurnShockValidate(t *testing.T) {
	bad := []ChurnConfig{
		{ShockMTBF: -1},
		{ShockMTBF: 10},               // no MTTR
		{ShockMTBF: 10, ShockMTTR: 5}, // no regions
		{Regions: [][]int{{}}},        // empty region
		{ShockMTBF: 10, ShockMTTR: 5, Regions: [][]int{nil}}, // empty region
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad shock config %d accepted", i)
		}
	}
	// Out-of-range region sites are caught at construction.
	defer func() {
		if recover() == nil {
			t.Fatal("NewChurn accepted out-of-range region site")
		}
	}()
	NewChurn(1, 3, 0, ChurnConfig{ShockMTBF: 10, ShockMTTR: 5, Regions: [][]int{{0, 7}}})
}

// TestChurnStreamPinned holds the event stream of Churn.Step — 5,000 steps
// of the soak config, bench/'s serving config and a shock config with two
// overlapping regions, seeds 1–3 on a 9-site ring, plus the final
// DownCounts and ActiveShocks — to FNV-1a constants generated from the
// four hand-written renewal loops before they became renewal.advance.
// Never regenerate them: every churn-driven BENCH row and bench/ digest
// stands on these streams.
func TestChurnStreamPinned(t *testing.T) {
	soak := ChurnConfig{SiteMTBF: 250, SiteMTTR: 25, LinkMTBF: 60, LinkMTTR: 25}
	shock := soak
	shock.Regions, shock.ShockMTBF, shock.ShockMTTR = [][]int{{0, 1, 2, 3}, {2, 3, 4, 5}}, 400, 20
	for ci, c := range []struct {
		cfg    ChurnConfig
		want   [3]uint64
		events [3]int
	}{
		{soak, [3]uint64{0xa488ffb9372beca0, 0x317010d1eee3195c, 0x45248431cf688e7f}, [3]int{1434, 1348, 1352}},
		{ChurnConfig{SiteMTBF: 400, SiteMTTR: 25, LinkMTBF: 200, LinkMTTR: 25},
			[3]uint64{0x70d521ef10882f20, 0x1a13cfc36e49ee7f, 0x43b4f872f44eb962}, [3]int{611, 601, 601}},
		{shock, [3]uint64{0xd10e4f065253964a, 0xe678d60f34667ffc, 0xce3a00f2147712b9}, [3]int{1542, 1497, 1486}},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			ch := NewChurn(seed, 9, 9, c.cfg)
			h := fnv.New64a()
			n := 0
			for step := 0; step < 5000; step++ {
				for _, ev := range ch.Step(float64(step)) {
					h.Write([]byte{byte(step), byte(step >> 8), byte(ev.Kind), byte(ev.Index)})
					n++
				}
			}
			s, l := ch.DownCounts()
			h.Write([]byte{byte(s), byte(l), byte(ch.ActiveShocks())})
			if got := h.Sum64(); got != c.want[seed-1] || n != c.events[seed-1] {
				t.Errorf("config %d seed %d: %d events hash %#x, want %d events %#x",
					ci, seed, n, got, c.events[seed-1], c.want[seed-1])
			}
		}
	}
}
