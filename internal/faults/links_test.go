package faults

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

func TestPartitionNilAndEmpty(t *testing.T) {
	var nilPS *LinkSchedule
	if nilPS.Blocked(5, 0, 1) {
		t.Fatal("nil schedule blocked a message")
	}
	if nilPS.ActiveCuts(5) != 0 || nilPS.NumRules() != 0 || nilPS.Horizon() != 0 {
		t.Fatal("nil schedule reported non-zero accounting")
	}
	ps := NewLinkSchedule()
	if ps.Blocked(5, 0, 1) || ps.Horizon() != 0 {
		t.Fatal("empty schedule blocked a message")
	}
}

func TestPartitionSplitSemantics(t *testing.T) {
	ps := NewLinkSchedule()
	ps.AddSplit(10, 20, []int{0, 1}, []int{2, 3})
	cases := []struct {
		t        int64
		from, to int
		want     bool
	}{
		{9, 0, 2, false},  // before the window
		{10, 0, 2, true},  // window is inclusive at start
		{19, 2, 0, true},  // symmetric
		{20, 0, 2, false}, // exclusive at end
		{15, 0, 1, false}, // same group
		{15, 2, 3, false}, // same group
		{15, 0, 4, false}, // site 4 unlisted: unaffected
		{15, 4, 2, false},
	}
	for _, c := range cases {
		if got := ps.Blocked(c.t, c.from, c.to); got != c.want {
			t.Errorf("Blocked(%d, %d, %d) = %v, want %v", c.t, c.from, c.to, got, c.want)
		}
	}
	if ps.Horizon() != 20 {
		t.Fatalf("Horizon = %d, want 20", ps.Horizon())
	}
	if ps.ActiveCuts(15) != 1 || ps.ActiveCuts(25) != 0 {
		t.Fatal("ActiveCuts miscounted")
	}
}

func TestPartitionOneWaySemantics(t *testing.T) {
	ps := NewLinkSchedule()
	ps.AddOneWay(0, 100, []int{1}, []int{0, 2})
	if !ps.Blocked(50, 1, 0) || !ps.Blocked(50, 1, 2) {
		t.Fatal("one-way cut did not block the forward direction")
	}
	if ps.Blocked(50, 0, 1) || ps.Blocked(50, 2, 1) {
		t.Fatal("one-way cut blocked the reverse direction")
	}
	if ps.Blocked(50, 0, 2) {
		t.Fatal("one-way cut blocked an unrelated pair")
	}
}

func TestPartitionOverlappingCutsCompose(t *testing.T) {
	ps := NewLinkSchedule()
	ps.AddSplit(0, 50, []int{0}, []int{1, 2})
	ps.AddSplit(30, 80, []int{2}, []int{0, 1})
	// During the overlap both cuts are live: 1<->2 is blocked only by the
	// second cut, 0<->1 only by the first.
	if !ps.Blocked(40, 1, 2) || !ps.Blocked(40, 0, 1) {
		t.Fatal("overlap window lost a cut")
	}
	// After the first heals, 0<->1 flows again but 1<->2 stays blocked.
	if ps.Blocked(60, 0, 1) || !ps.Blocked(60, 1, 2) {
		t.Fatal("healing one cut disturbed the other")
	}
	if ps.ActiveCuts(40) != 2 {
		t.Fatalf("ActiveCuts(40) = %d, want 2", ps.ActiveCuts(40))
	}
}

func TestPartitionBuilderPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"empty-window", func() { NewLinkSchedule().AddSplit(5, 5, []int{0}, []int{1}) }},
		{"one-group", func() { NewLinkSchedule().AddSplit(0, 1, []int{0}) }},
		{"empty-group", func() { NewLinkSchedule().AddSplit(0, 1, []int{0}, nil) }},
		{"dup-site", func() { NewLinkSchedule().AddSplit(0, 1, []int{0, 1}, []int{1}) }},
		{"oneway-window", func() { NewLinkSchedule().AddOneWay(3, 2, []int{0}, []int{1}) }},
		{"oneway-empty", func() { NewLinkSchedule().AddOneWay(0, 1, nil, []int{1}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			c.fn()
		})
	}
}

func TestStormDeterministicAndBounded(t *testing.T) {
	cfg := StormConfig{
		Sites:          9,
		Regions:        [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}},
		Start:          0,
		End:            500,
		MeanDuration:   20,
		MeanGap:        15,
		OneWayFraction: 0.3,
	}
	a := Storm(11, cfg)
	b := Storm(11, cfg)
	if a.NumRules() == 0 {
		t.Fatal("storm generated no cuts")
	}
	if a.NumRules() != b.NumRules() {
		t.Fatal("same seed, different cut counts")
	}
	for step := int64(0); step < 600; step++ {
		for from := 0; from < cfg.Sites; from++ {
			for to := 0; to < cfg.Sites; to++ {
				if a.Blocked(step, from, to) != b.Blocked(step, from, to) {
					t.Fatalf("step %d: same-seed storms diverged on (%d,%d)", step, from, to)
				}
			}
		}
	}
	if a.Horizon() > cfg.End {
		t.Fatalf("cut extends past End: horizon %d > %d", a.Horizon(), cfg.End)
	}
	// Past the horizon everything flows.
	for from := 0; from < cfg.Sites; from++ {
		for to := 0; to < cfg.Sites; to++ {
			if a.Blocked(a.Horizon(), from, to) {
				t.Fatal("blocked at horizon")
			}
		}
	}
	// A different seed must differ somewhere.
	c := Storm(12, cfg)
	same := c.NumRules() == a.NumRules()
	if same {
		diff := false
		for step := int64(0); step < 500 && !diff; step++ {
			for from := 0; from < cfg.Sites && !diff; from++ {
				for to := 0; to < cfg.Sites && !diff; to++ {
					if a.Blocked(step, from, to) != c.Blocked(step, from, to) {
						diff = true
					}
				}
			}
		}
		same = !diff
	}
	if same {
		t.Fatal("seeds 11 and 12 produced identical storms")
	}
}

func TestStormRegionsIsolateAsUnits(t *testing.T) {
	// Every cut a storm generates isolates exactly one configured region:
	// within-region pairs always flow, and whenever some cross pair is
	// blocked the corresponding whole region boundary behaves as one cut
	// (possibly one-way).
	cfg := StormConfig{
		Sites:          6,
		Regions:        [][]int{{0, 1}, {4, 5}},
		Start:          0,
		End:            300,
		MeanDuration:   25,
		MeanGap:        30,
		OneWayFraction: 0.5,
	}
	ps := Storm(3, cfg)
	for step := int64(0); step < 300; step++ {
		if ps.Blocked(step, 0, 1) || ps.Blocked(step, 1, 0) ||
			ps.Blocked(step, 4, 5) || ps.Blocked(step, 5, 4) {
			t.Fatalf("step %d: within-region pair blocked", step)
		}
	}
}

func TestStormValidate(t *testing.T) {
	good := StormConfig{Sites: 5, Regions: [][]int{{0, 1}}, Start: 0, End: 10,
		MeanDuration: 2, MeanGap: 2, OneWayFraction: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []StormConfig{
		{Regions: [][]int{{0}}, Start: 0, End: 10, MeanDuration: 1, MeanGap: 1},                              // Sites 0
		{Sites: 5, Start: 0, End: 10, MeanDuration: 1, MeanGap: 1},                                           // no regions
		{Sites: 5, Regions: [][]int{{}}, Start: 0, End: 10, MeanDuration: 1, MeanGap: 1},                     // empty region
		{Sites: 2, Regions: [][]int{{0, 1}}, Start: 0, End: 10, MeanDuration: 1, MeanGap: 1},                 // region covers all
		{Sites: 5, Regions: [][]int{{0, 9}}, Start: 0, End: 10, MeanDuration: 1, MeanGap: 1},                 // site out of range
		{Sites: 5, Regions: [][]int{{0}}, Start: 10, End: 10, MeanDuration: 1, MeanGap: 1},                   // empty window
		{Sites: 5, Regions: [][]int{{0}}, Start: 0, End: 10, MeanDuration: 0, MeanGap: 1},                    // bad duration
		{Sites: 5, Regions: [][]int{{0}}, Start: 0, End: 10, MeanDuration: 1, MeanGap: 0},                    // bad gap
		{Sites: 5, Regions: [][]int{{0}}, Start: 0, End: 10, MeanDuration: 1, MeanGap: 1, OneWayFraction: 2}, // bad fraction
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestLatencyNilAndEmpty(t *testing.T) {
	var nilLS *LinkSchedule
	if nilLS.Delay(5, 0, 1) != 0 || nilLS.NumRules() != 0 || nilLS.Horizon() != 0 {
		t.Fatal("nil schedule must delay nothing")
	}
	ls := NewLinkSchedule()
	if ls.Delay(5, 0, 1) != 0 || ls.NumRules() != 0 || ls.Horizon() != 0 {
		t.Fatal("empty schedule must delay nothing")
	}
}

func TestLatencyLinkSlowWindowAndDirection(t *testing.T) {
	ls := NewLinkSchedule().AddLinkSlow(10, 20, []int{0}, []int{1}, 6, 0)
	cases := []struct {
		t        int64
		from, to int
		want     int64
	}{
		{9, 0, 1, 0},  // before the window
		{10, 0, 1, 6}, // window start
		{19, 0, 1, 6}, // last active step
		{20, 0, 1, 0}, // window end is exclusive
		{15, 1, 0, 0}, // reverse direction untouched
		{15, 0, 2, 0}, // other destination untouched
	}
	for _, c := range cases {
		if got := ls.Delay(c.t, c.from, c.to); got != c.want {
			t.Fatalf("Delay(%d, %d, %d) = %d, want %d", c.t, c.from, c.to, got, c.want)
		}
	}
	if ls.Horizon() != 20 || ls.NumRules() != 1 {
		t.Fatalf("horizon=%d rules=%d", ls.Horizon(), ls.NumRules())
	}
}

func TestLatencyRamp(t *testing.T) {
	ls := NewLinkSchedule().AddLinkSlow(0, 100, []int{0}, nil, 10, 10)
	if d := ls.Delay(0, 0, 5); d != 1 {
		t.Fatalf("ramp step 0: %d, want 1", d)
	}
	if d := ls.Delay(4, 0, 5); d != 5 {
		t.Fatalf("ramp step 4: %d, want 5", d)
	}
	if d := ls.Delay(9, 0, 5); d != 10 {
		t.Fatalf("ramp step 9: %d, want 10", d)
	}
	if d := ls.Delay(50, 0, 5); d != 10 {
		t.Fatalf("past the ramp: %d, want peak 10", d)
	}
	// Ramps must be monotone nondecreasing.
	prev := int64(-1)
	for step := int64(0); step < 15; step++ {
		d := ls.Delay(step, 0, 5)
		if d < prev {
			t.Fatalf("ramp not monotone at %d: %d < %d", step, d, prev)
		}
		prev = d
	}
}

func TestLatencySiteSlowBothDirections(t *testing.T) {
	ls := NewLinkSchedule().AddSiteSlow(0, 10, 3, 4, 0)
	if d := ls.Delay(5, 3, 0); d != 4 {
		t.Fatalf("out of slow site: %d, want 4", d)
	}
	if d := ls.Delay(5, 0, 3); d != 4 {
		t.Fatalf("into slow site: %d, want 4", d)
	}
	if d := ls.Delay(5, 0, 1); d != 0 {
		t.Fatalf("unrelated link: %d, want 0", d)
	}
	// A message both from and to slow sites accrues both rules.
	ls.AddSiteSlow(0, 10, 0, 2, 0)
	if d := ls.Delay(5, 0, 3); d != 6 {
		t.Fatalf("compose: %d, want 4+2", d)
	}
}

func TestLatencyFlap(t *testing.T) {
	ls := NewLinkSchedule().AddFlap(100, 200, []int{2}, 5, 4, 2)
	for step := int64(100); step < 120; step++ {
		want := int64(0)
		if (step-100)%4 < 2 {
			want = 5
		}
		if d := ls.Delay(step, 2, 0); d != want {
			t.Fatalf("flap out at %d: %d, want %d", step, d, want)
		}
		if d := ls.Delay(step, 0, 2); d != want {
			t.Fatalf("flap in at %d: %d, want %d", step, d, want)
		}
	}
	if d := ls.Delay(150, 0, 1); d != 0 {
		t.Fatal("flap must not touch unrelated links")
	}
}

func TestLatencyHeavyTail(t *testing.T) {
	ls := NewLinkSchedule().SetHeavyTail(7, 0.2, 3, 50)
	hits, sum := 0, int64(0)
	var maxd int64
	for step := int64(0); step < 4000; step++ {
		d := ls.Delay(step, 0, 1)
		if d < 0 {
			t.Fatalf("negative delay %d", d)
		}
		if d > 0 {
			hits++
			sum += d
			if d > maxd {
				maxd = d
			}
			if d > 50 {
				t.Fatalf("delay %d above cap", d)
			}
		}
		// Purity: the same (t, from, to) always draws the same delay.
		if again := ls.Delay(step, 0, 1); again != d {
			t.Fatalf("heavy tail not pure at %d: %d vs %d", step, d, again)
		}
	}
	rate := float64(hits) / 4000
	if rate < 0.15 || rate > 0.25 {
		t.Fatalf("hit rate %.3f far from 0.2", rate)
	}
	if maxd < 10 {
		t.Fatalf("max inflated delay %d: tail not heavy", maxd)
	}
	// Different links draw independent inflation.
	same := 0
	for step := int64(0); step < 400; step++ {
		if ls.Delay(step, 0, 1) == ls.Delay(step, 2, 3) {
			same++
		}
	}
	if same == 400 {
		t.Fatal("links draw identical inflation: hash ignores the link")
	}
}

func TestLatencyPanicsOnMalformedInput(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("empty window", func() {
		NewLinkSchedule().AddLinkSlow(10, 10, nil, nil, 3, 0)
	})
	mustPanic("zero slow", func() {
		NewLinkSchedule().AddLinkSlow(0, 10, nil, nil, 0, 0)
	})
	mustPanic("bad duty cycle", func() {
		NewLinkSchedule().AddFlap(0, 10, nil, 3, 4, 4)
	})
	mustPanic("bad tail prob", func() {
		NewLinkSchedule().SetHeavyTail(1, 1.5, 3, 50)
	})
	mustPanic("tail cap below mean", func() {
		NewLinkSchedule().SetHeavyTail(1, 0.1, 10, 5)
	})
}

func TestGrayStormDeterministicAndBounded(t *testing.T) {
	cfg := GrayStormConfig{
		Sites: 9, Start: 0, End: 500,
		MeanDuration: 30, MeanGap: 25,
		SlowMin: 3, SlowMax: 12,
		RampFraction: 0.3, FlapFraction: 0.3,
	}
	a := GrayStorm(11, cfg)
	b := GrayStorm(11, cfg)
	if a.NumRules() == 0 {
		t.Fatal("storm generated no episodes")
	}
	if a.NumRules() != b.NumRules() || a.Horizon() != b.Horizon() {
		t.Fatal("same seed must generate identical storms")
	}
	for step := int64(0); step < 520; step++ {
		for from := 0; from < cfg.Sites; from++ {
			for to := 0; to < cfg.Sites; to++ {
				da, db := a.Delay(step, from, to), b.Delay(step, from, to)
				if da != db {
					t.Fatalf("storms diverge at (%d,%d,%d)", step, from, to)
				}
				if da < 0 {
					t.Fatalf("negative delay at (%d,%d,%d)", step, from, to)
				}
			}
		}
	}
	if a.Horizon() > cfg.End {
		t.Fatalf("horizon %d past End %d", a.Horizon(), cfg.End)
	}
	if c := GrayStorm(12, cfg); c.NumRules() == a.NumRules() && c.Horizon() == a.Horizon() {
		// Rule counts colliding is possible; identical horizons too — but
		// the full delay surface matching would mean the seed is ignored.
		diff := false
		for step := int64(0); step < 500 && !diff; step++ {
			if c.Delay(step, 0, 1) != a.Delay(step, 0, 1) {
				diff = true
			}
		}
		if !diff {
			t.Fatal("different seeds generated identical storms")
		}
	}
}

func TestGrayStormValidate(t *testing.T) {
	good := GrayStormConfig{
		Sites: 3, Start: 0, End: 10,
		MeanDuration: 2, MeanGap: 2, SlowMin: 1, SlowMax: 2,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []GrayStormConfig{
		{Sites: 0, Start: 0, End: 10, MeanDuration: 2, MeanGap: 2, SlowMin: 1, SlowMax: 2},
		{Sites: 3, Start: 10, End: 10, MeanDuration: 2, MeanGap: 2, SlowMin: 1, SlowMax: 2},
		{Sites: 3, Start: 0, End: 10, MeanDuration: 0, MeanGap: 2, SlowMin: 1, SlowMax: 2},
		{Sites: 3, Start: 0, End: 10, MeanDuration: 2, MeanGap: 2, SlowMin: 0, SlowMax: 2},
		{Sites: 3, Start: 0, End: 10, MeanDuration: 2, MeanGap: 2, SlowMin: 3, SlowMax: 2},
		{Sites: 3, Start: 0, End: 10, MeanDuration: 2, MeanGap: 2, SlowMin: 1, SlowMax: 2, RampFraction: 2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GrayStorm must panic on an invalid config")
		}
	}()
	GrayStorm(1, bad[0])
}

// hashLinks is FNV-1a over (Blocked, Delay) of every (t, from, to) with t
// in [0, tEnd) over the first `sites` sites.
func hashLinks(ls *LinkSchedule, sites int, tEnd int64) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	for t := int64(0); t < tEnd; t++ {
		for from := 0; from < sites; from++ {
			for to := 0; to < sites; to++ {
				buf[0] = 0
				if ls.Blocked(t, from, to) {
					buf[0] = 1
				}
				binary.LittleEndian.PutUint64(buf[1:], uint64(ls.Delay(t, from, to)))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// The link-fault timetables of the adversary and gray suites
// (cmd/quorumsim): the partition storm, the two gray storms, and the
// hand-built rotating slow-replica schedule with its heavy tail.
var (
	pinnedStormCfg = StormConfig{Sites: 9, Regions: [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}},
		Start: 0, End: 2500 * 3 / 4, MeanDuration: 40, MeanGap: 70, OneWayFraction: 0.25}
	pinnedGrayCfgs = []GrayStormConfig{
		{Sites: 9, Start: 0, End: 2000 * 3 / 4, MeanDuration: 30, MeanGap: 50,
			SlowMin: 8, SlowMax: 25, RampFraction: 0.25, FlapFraction: 0.25},
		{Sites: 9, Start: 0, End: 2000, MeanDuration: 30, MeanGap: 40,
			SlowMin: 8, SlowMax: 10, RampFraction: 0.25, FlapFraction: 0.25},
	}
)

func pinnedRotating() *LinkSchedule {
	const sites, steps, rotateEvery = 9, 2000, 60
	rotating := NewLinkSchedule().SetHeavyTail(1^0x9e37, 0.05, 6, 12)
	for w := 0; w*rotateEvery < steps; w++ {
		start := int64(w * rotateEvery)
		a, b := w%sites, (w+3)%sites
		rotating.AddLinkSlow(start, start+rotateEvery, []int{a}, []int{b}, 25, 0)
		rotating.AddLinkSlow(start, start+rotateEvery, []int{b}, []int{a}, 25, 0)
	}
	return rotating
}

// TestLinkSchedulePinned holds every answer of the suites' timetables to
// constants generated at the parent of the PR that made LinkSchedule, from
// the separate cut timetable's Blocked and slowdown timetable's Delay (a
// schedule of one kind answers the other query with false / 0). Never
// regenerate them: a mismatch means the stimulus of every committed
// BENCH_adversary / BENCH_gray / BENCH_strategy_adversity row moved.
func TestLinkSchedulePinned(t *testing.T) {
	check := func(name string, ls *LinkSchedule, tEnd int64, rules int, horizon int64, want uint64) {
		t.Helper()
		if ls.NumRules() != rules || ls.Horizon() != horizon {
			t.Errorf("%s: %d rules to horizon %d, want %d to %d", name, ls.NumRules(), ls.Horizon(), rules, horizon)
		}
		if got := hashLinks(ls, 9, tEnd); got != want {
			t.Errorf("%s: hash %#x, want %#x", name, got, want)
		}
	}
	for _, c := range []struct {
		seed    uint64
		rules   int
		horizon int64
		want    uint64
	}{
		{1, 30, 1875, 0xa0a77667664ab27},
		{7, 30, 1849, 0x31175ce3c7e2e87a},
		{13, 27, 1818, 0x3c071f0ebb1ed175},
	} {
		check(fmt.Sprint("storm/", c.seed), Storm(c.seed, pinnedStormCfg), 1900, c.rules, c.horizon, c.want)
	}
	for _, c := range []struct {
		cfg     int
		seed    uint64
		rules   int
		horizon int64
		want    uint64
	}{
		{0, 1, 70, 1461, 0x838a507bd7a2009f},
		{0, 12, 56, 1387, 0x1f10b744906c5dcd},
		{0, 1 ^ 0xad, 54, 1500, 0xa8f3897005475dd5},
		{1, 1, 122, 1999, 0x4eaacbe1af84f9f5},
		{1, 12, 86, 2000, 0x430484c6fd74140b},
		{1, 1 ^ 0xad, 88, 2000, 0x663e00afa169fdd1},
	} {
		check(fmt.Sprintf("gray/%d/%d", c.cfg, c.seed), GrayStorm(c.seed, pinnedGrayCfgs[c.cfg]), 2010, c.rules, c.horizon, c.want)
	}
	check("rotating", pinnedRotating(), 2100, 68, 2040, 0xc5043d2b8fc9836a)
}

// TestLinkScheduleMergeAndClone: a merged storm answers each query exactly
// as the two separate schedules did, and nothing appended to a clone shows
// in the original (or the other way round).
func TestLinkScheduleMergeAndClone(t *testing.T) {
	storm, gray := Storm(1, pinnedStormCfg), GrayStorm(1, pinnedGrayCfgs[0])
	both := storm.Clone().Merge(gray)
	if both.NumRules() != storm.NumRules()+gray.NumRules() || both.Horizon() != max(storm.Horizon(), gray.Horizon()) {
		t.Fatalf("merged %d rules to %d", both.NumRules(), both.Horizon())
	}
	for step := int64(0); step < 1900; step++ {
		for from := 0; from < 9; from++ {
			for to := 0; to < 9; to++ {
				if both.Blocked(step, from, to) != storm.Blocked(step, from, to) ||
					both.Delay(step, from, to) != gray.Delay(step, from, to) {
					t.Fatalf("merged schedule differs from its parts at (%d, %d, %d)", step, from, to)
				}
			}
		}
	}
	if storm.Delay(100, 0, 1) != 0 || gray.Blocked(100, 0, 1) {
		t.Fatal("Merge wrote into an operand")
	}
	if got := NewLinkSchedule().Merge(nil).Merge(pinnedRotating()); hashLinks(got, 9, 200) != hashLinks(pinnedRotating(), 9, 200) {
		t.Fatal("Merge dropped the heavy tail")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("merging two heavy tails must panic")
			}
		}()
		pinnedRotating().Merge(pinnedRotating())
	}()

	before := hashLinks(both, 9, 1900)
	c := both.Clone()
	c.AddOneWay(0, 1900, []int{0}, []int{1}).AddSiteSlow(0, 1900, 2, 7, 0)
	if hashLinks(both, 9, 1900) != before || both.NumRules() == c.NumRules() {
		t.Fatal("appending to a clone changed the original")
	}
	both.AddSplit(2000, 2100, []int{0}, []int{1})
	if c.Horizon() != 1900 || c.Blocked(2050, 0, 1) {
		t.Fatal("appending to the original changed the clone")
	}
	var none *LinkSchedule
	if e := none.Clone(); e == nil || e.NumRules() != 0 {
		t.Fatal("a nil schedule must clone to an empty one")
	}
}

// TestApplyGrayAction: an adaptive adversary's move lands as one one-way
// cut of the targets' outbound traffic or one slowdown per target, and a
// degenerate move changes nothing.
func TestApplyGrayAction(t *testing.T) {
	ls := NewLinkSchedule()
	for _, act := range []GrayAction{
		{Cut: true, Start: 0, End: 10},                        // no targets
		{Cut: true, Sites: []int{0}, Start: 5, End: 5},        // empty window
		{Cut: true, Sites: []int{0, 1, 2}, Start: 0, End: 10}, // nobody left to cut from
		{Sites: []int{0}, Start: 0, End: 10},                  // no slowdown
	} {
		ls.Apply(act, 3)
	}
	if ls.NumRules() != 0 {
		t.Fatalf("degenerate moves added %d rules", ls.NumRules())
	}
	ls.Apply(GrayAction{Cut: true, Sites: []int{1, 2}, Start: 10, End: 20}, 4)
	if !ls.Blocked(10, 1, 0) || !ls.Blocked(19, 2, 3) || ls.Blocked(10, 0, 1) || ls.Blocked(10, 1, 2) || ls.Blocked(20, 1, 0) {
		t.Fatal("cut move is not a one-way targets→rest cut over [10, 20)")
	}
	ls.Apply(GrayAction{Sites: []int{0, 3}, Start: 0, End: 5, Slow: 4}, 4)
	if ls.Delay(2, 0, 1) != 4 || ls.Delay(2, 1, 3) != 4 || ls.Delay(2, 0, 3) != 8 || ls.Delay(2, 1, 2) != 0 || ls.Delay(5, 0, 1) != 0 {
		t.Fatal("slow move is not a per-target site slowdown over [0, 5)")
	}
}
