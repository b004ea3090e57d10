package faults

import (
	"fmt"
	"math"
	"slices"

	"quorumkit/internal/rng"
)

// Scheduled link faults: the correlated, group-structured network faults
// the per-message fault plans lack. A LinkSchedule is a deterministic
// timetable of rules evaluated against the harness's integer step clock,
// and every rule is one of two things:
//
//   - a cut: messages in the covered direction are silently lost while the
//     rule is active — a symmetric site-group split (AddSplit) or an
//     asymmetric one-way block ("A hears B, B doesn't hear A", AddOneWay).
//     Overlapping cuts compose: a message is blocked if *any* active cut
//     blocks it.
//   - a slowdown (gray failure): messages in the covered direction are
//     never dropped but suffer extra delivery slots — flat over the window,
//     optionally ramping linearly from zero over the first `ramp` steps (the
//     "disk filling up" / "GC death spiral" shape; AddLinkSlow, AddSiteSlow),
//     or active only during the first `on` steps of every `period`-step
//     cycle (the intermittently overloaded box; AddFlap). Slowdowns compose
//     additively, and SetHeavyTail adds, with small probability per
//     (step, link), a Pareto-tailed delay — the stray packet that hits a
//     deep queue.
//
// Like a Plan, a schedule is a pure function of its construction inputs:
// Blocked(t, from, to) and Delay(t, from, to) depend only on the timetable
// (and, for the heavy-tail term, a seed hashed with the inputs), never on
// arrival order or which runtime asks, so the same schedule injects the
// same fault history into the deterministic Cluster and the concurrent
// Async runtime.
//
// Link faults introduce no new wire-visible messages: they only suppress
// or stretch the delivery of existing protocol traffic, so the wire codec
// and its fuzz corpus are unchanged.
//
// Construction is not synchronized: build (or append to) a schedule only
// from the single harness goroutine that also advances the clock, as the
// adaptive adversaries do at step boundaries. Blocked and Delay are
// read-only and safe for concurrent use once construction is done.

// linkRule is one timed cut or slowdown, active on steps t with
// start <= t < end.
type linkRule struct {
	start, end int64
	group      map[int]int  // split cuts: site -> group index; nil otherwise
	from, to   map[int]bool // covered direction; nil set = every site
	slow       int64        // peak added delivery slots; 0 marks a cut
	ramp       int64        // linear ramp-in length in steps (0 = step function)
	period, on int64        // flapping duty cycle (period 0 = always on)
}

// covers reports whether the rule applies to the (from, to) direction.
func (r *linkRule) covers(from, to int) bool {
	if r.group != nil {
		gf, okf := r.group[from]
		gt, okt := r.group[to]
		return okf && okt && gf != gt
	}
	return (r.from == nil || r.from[from]) && (r.to == nil || r.to[to])
}

// LinkSchedule is a timetable of link cuts and slowdowns. The nil schedule
// blocks and delays nothing.
type LinkSchedule struct {
	rules   []linkRule
	horizon int64

	htSeed uint64
	htProb float64
	htMean int64
	htCap  int64
}

// NewLinkSchedule returns an empty schedule.
func NewLinkSchedule() *LinkSchedule {
	return &LinkSchedule{}
}

// Clone returns an independent copy: rules appended to either schedule
// never show in the other. A nil schedule clones to an empty one.
func (ls *LinkSchedule) Clone() *LinkSchedule {
	if ls == nil {
		return NewLinkSchedule()
	}
	c := *ls
	c.rules = slices.Clone(ls.rules) // the site sets are never mutated after add
	return &c
}

// Merge appends every rule of o, so ls answers Blocked as "either blocks"
// and Delay as the sum of the two slowdown sets. At most one of the two may
// carry a heavy tail; ls keeps whichever exists. It returns ls.
func (ls *LinkSchedule) Merge(o *LinkSchedule) *LinkSchedule {
	if o == nil {
		return ls
	}
	if o.htProb > 0 {
		if ls.htProb > 0 {
			panic("faults: Merge of two heavy-tailed schedules")
		}
		ls.htSeed, ls.htProb, ls.htMean, ls.htCap = o.htSeed, o.htProb, o.htMean, o.htCap
	}
	ls.rules = append(ls.rules, o.rules...)
	ls.horizon = max(ls.horizon, o.horizon)
	return ls
}

// add validates the window and appends. It panics on malformed input
// (schedules are built from trusted test/CLI configuration, like fault
// plans), as does every builder below.
func (ls *LinkSchedule) add(what string, r linkRule) *LinkSchedule {
	if r.end <= r.start {
		panic(fmt.Sprintf("faults: %s with empty window [%d, %d)", what, r.start, r.end))
	}
	ls.rules = append(ls.rules, r)
	ls.horizon = max(ls.horizon, r.end)
	return ls
}

// siteSet builds a membership set; an empty slice means "all sites" (nil).
func siteSet(sites []int) map[int]bool {
	if len(sites) == 0 {
		return nil
	}
	m := make(map[int]bool, len(sites))
	for _, s := range sites {
		m[s] = true
	}
	return m
}

// AddSplit adds a symmetric cut active on [start, end): sites listed in
// different groups cannot exchange messages in either direction while the
// cut is active. Sites not listed in any group are unaffected by this cut.
func (ls *LinkSchedule) AddSplit(start, end int64, groups ...[]int) *LinkSchedule {
	if len(groups) < 2 {
		panic("faults: AddSplit needs at least two groups")
	}
	g := make(map[int]int)
	for gi, sites := range groups {
		if len(sites) == 0 {
			panic(fmt.Sprintf("faults: AddSplit group %d is empty", gi))
		}
		for _, s := range sites {
			if prev, dup := g[s]; dup && prev != gi {
				panic(fmt.Sprintf("faults: AddSplit site %d in groups %d and %d", s, prev, gi))
			}
			g[s] = gi
		}
	}
	return ls.add("AddSplit", linkRule{start: start, end: end, group: g})
}

// AddOneWay adds an asymmetric cut active on [start, end): messages from
// any site in `from` to any site in `to` are lost; the reverse direction
// is untouched.
func (ls *LinkSchedule) AddOneWay(start, end int64, from, to []int) *LinkSchedule {
	if len(from) == 0 || len(to) == 0 {
		panic("faults: AddOneWay needs non-empty from and to sets")
	}
	return ls.add("AddOneWay", linkRule{start: start, end: end, from: siteSet(from), to: siteSet(to)})
}

// addSlow appends one slowdown rule.
func (ls *LinkSchedule) addSlow(r linkRule) *LinkSchedule {
	if r.slow < 1 {
		panic("faults: slowdown rule needs a positive slowdown")
	}
	return ls.add("slowdown rule", r)
}

// AddLinkSlow adds a directional slowdown active on [start, end): messages
// from any site in `from` to any site in `to` (empty slice = every site)
// suffer `slow` extra delivery slots, ramping linearly from zero over the
// first `ramp` steps when ramp > 0.
func (ls *LinkSchedule) AddLinkSlow(start, end int64, from, to []int, slow, ramp int64) *LinkSchedule {
	return ls.addSlow(linkRule{
		start: start, end: end, ramp: ramp, slow: slow,
		from: siteSet(from), to: siteSet(to),
	})
}

// AddSiteSlow slows every message into *and* out of one site on
// [start, end) — the degraded-node shape. Equivalent to two AddLinkSlow
// rules; the two directions accrue independently, so a round trip through
// the site pays the slowdown twice, as it would in a real deployment.
func (ls *LinkSchedule) AddSiteSlow(start, end int64, site int, slow, ramp int64) *LinkSchedule {
	ls.AddLinkSlow(start, end, []int{site}, nil, slow, ramp)
	return ls.AddLinkSlow(start, end, nil, []int{site}, slow, ramp)
}

// AddFlap adds a flapping slowdown on [start, end): the delay applies only
// during the first `on` steps of every `period`-step cycle (anchored at
// start).
func (ls *LinkSchedule) AddFlap(start, end int64, sites []int, slow, period, on int64) *LinkSchedule {
	if period < 2 || on < 1 || on >= period {
		panic(fmt.Sprintf("faults: AddFlap duty cycle on=%d period=%d is malformed", on, period))
	}
	set := siteSet(sites)
	ls.addSlow(linkRule{start: start, end: end, slow: slow, period: period, on: on, from: set})
	return ls.addSlow(linkRule{start: start, end: end, slow: slow, period: period, on: on, to: set})
}

// SetHeavyTail enables per-(step, link) heavy-tailed delay inflation: with
// probability prob a message direction suffers an additional Pareto(α=2)
// delay of scale `mean`, capped at `cap` slots. The draw is a pure hash of
// (seed, t, from, to), so both runtimes and repeated runs see the same
// inflation pattern.
func (ls *LinkSchedule) SetHeavyTail(seed uint64, prob float64, mean, cap int64) *LinkSchedule {
	if prob < 0 || prob > 1 {
		panic(fmt.Sprintf("faults: heavy-tail prob %g out of [0,1]", prob))
	}
	if prob > 0 && (mean < 1 || cap < mean) {
		panic(fmt.Sprintf("faults: heavy-tail needs 1 <= mean (%d) <= cap (%d)", mean, cap))
	}
	ls.htSeed, ls.htProb, ls.htMean, ls.htCap = seed, prob, mean, cap
	return ls
}

// complement lists the sites of [0, n) not in set, ascending.
func complement(set []int, n int) []int {
	rest := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if !slices.Contains(set, s) {
			rest = append(rest, s)
		}
	}
	return rest
}

// Blocked reports whether a message from site `from` to site `to` is
// suppressed at step t. Nil-safe: a nil schedule blocks nothing.
func (ls *LinkSchedule) Blocked(t int64, from, to int) bool {
	if ls == nil {
		return false
	}
	for i := range ls.rules {
		r := &ls.rules[i]
		if r.slow == 0 && t >= r.start && t < r.end && r.covers(from, to) {
			return true
		}
	}
	return false
}

// Delay returns the extra delivery slots a message from site `from` to
// site `to` suffers at step t. Nil-safe: a nil schedule delays nothing.
func (ls *LinkSchedule) Delay(t int64, from, to int) int64 {
	if ls == nil {
		return 0
	}
	var d int64
	for i := range ls.rules {
		r := &ls.rules[i]
		if r.slow == 0 || t < r.start || t >= r.end || !r.covers(from, to) {
			continue
		}
		if r.period > 0 && (t-r.start)%r.period >= r.on {
			continue
		}
		if r.ramp > 0 && t-r.start < r.ramp {
			d += r.slow * (t - r.start + 1) / r.ramp
			continue
		}
		d += r.slow
	}
	if ls.htProb > 0 {
		h := mix64(ls.htSeed ^ mix64(uint64(t)+0x9e3779b97f4a7c15) ^ mix64(uint64(from)<<32|uint64(to)))
		if unit(h) < ls.htProb {
			// Pareto(α=2): P(X > x·mean) = 1/x²; u in (0,1].
			u := 1 - unit(mix64(h+1))
			d += min(int64(float64(ls.htMean)/math.Sqrt(u)), ls.htCap)
		}
	}
	return d
}

// ActiveCuts returns how many cuts are active at step t (0 on nil).
func (ls *LinkSchedule) ActiveCuts(t int64) int {
	if ls == nil {
		return 0
	}
	n := 0
	for i := range ls.rules {
		if r := &ls.rules[i]; r.slow == 0 && t >= r.start && t < r.end {
			n++
		}
	}
	return n
}

// NumRules returns the number of rules, cuts and slowdowns (0 on nil).
func (ls *LinkSchedule) NumRules() int {
	if ls == nil {
		return 0
	}
	return len(ls.rules)
}

// Horizon returns the end of the last rule's window: every step at or past
// the horizon is free of cuts and slowdowns (heavy-tail inflation has no
// horizon of its own). 0 on nil or empty schedules.
func (ls *LinkSchedule) Horizon() int64 {
	if ls == nil {
		return 0
	}
	return ls.horizon
}

// StormConfig parameterizes a seeded storm: a sequence of overlapping
// regional cuts with exponential onset gaps and durations.
type StormConfig struct {
	Sites   int     // total sites in the topology
	Regions [][]int // candidate regions; each cut isolates one of them
	Start   int64   // first step a cut may begin
	End     int64   // no cut extends past this step

	MeanDuration   float64 // mean cut length, in steps
	MeanGap        float64 // mean gap between consecutive onsets, in steps
	OneWayFraction float64 // P(a cut is one-way, region -> rest)
}

// Validate rejects nonsensical storm configurations.
func (c StormConfig) Validate() error {
	if c.Sites <= 0 {
		return fmt.Errorf("faults: StormConfig.Sites=%d must be positive", c.Sites)
	}
	if len(c.Regions) == 0 {
		return fmt.Errorf("faults: StormConfig needs at least one region")
	}
	for ri, region := range c.Regions {
		if len(region) == 0 {
			return fmt.Errorf("faults: StormConfig region %d is empty", ri)
		}
		if len(region) >= c.Sites {
			return fmt.Errorf("faults: StormConfig region %d covers all %d sites", ri, c.Sites)
		}
		for _, s := range region {
			if s < 0 || s >= c.Sites {
				return fmt.Errorf("faults: StormConfig region %d has site %d out of [0,%d)", ri, s, c.Sites)
			}
		}
	}
	if c.End <= c.Start {
		return fmt.Errorf("faults: StormConfig window [%d, %d) is empty", c.Start, c.End)
	}
	if c.MeanDuration <= 0 || c.MeanGap <= 0 {
		return fmt.Errorf("faults: StormConfig needs positive MeanDuration and MeanGap")
	}
	if c.OneWayFraction < 0 || c.OneWayFraction > 1 {
		return fmt.Errorf("faults: StormConfig.OneWayFraction=%g out of [0,1]", c.OneWayFraction)
	}
	return nil
}

// Storm generates a deterministic partition storm: overlapping regional
// cuts whose onsets follow a Poisson process with mean gap MeanGap and
// whose durations are exponential with mean MeanDuration. Each cut
// isolates one randomly chosen region from the rest of the topology —
// fully (a symmetric split) or, with probability OneWayFraction, only in
// the region-to-rest direction (the region hears the majority but cannot
// answer). The schedule is a pure function of (seed, cfg). It panics on an
// invalid config.
func Storm(seed uint64, cfg StormConfig) *LinkSchedule {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	src := rng.New(seed ^ 0x570c4a1) // distinct stream from churn's
	ls := NewLinkSchedule()
	t := float64(cfg.Start) + src.Exp(cfg.MeanGap)
	for int64(t) < cfg.End {
		start := int64(t)
		region := cfg.Regions[src.Intn(len(cfg.Regions))]
		end := min(start+1+int64(src.Exp(cfg.MeanDuration)), cfg.End)
		rest := complement(region, cfg.Sites)
		if src.Bernoulli(cfg.OneWayFraction) {
			ls.AddOneWay(start, end, region, rest)
		} else {
			ls.AddSplit(start, end, region, rest)
		}
		t += src.Exp(cfg.MeanGap)
	}
	return ls
}

// GrayStormConfig parameterizes a seeded latency storm: overlapping
// slowdown episodes against random sites, with exponential onset gaps and
// durations — the delay analogue of StormConfig.
type GrayStormConfig struct {
	Sites int   // total sites in the topology
	Start int64 // first step an episode may begin
	End   int64 // no episode extends past this step

	MeanDuration float64 // mean episode length, in steps
	MeanGap      float64 // mean gap between onsets, in steps
	SlowMin      int64   // per-episode slowdown drawn from [SlowMin, SlowMax]
	SlowMax      int64
	RampFraction float64 // P(an episode ramps in over half its length)
	FlapFraction float64 // P(an episode flaps with a 4-step period instead)
}

// Validate rejects nonsensical storm configurations.
func (c GrayStormConfig) Validate() error {
	if c.Sites <= 0 {
		return fmt.Errorf("faults: GrayStormConfig.Sites=%d must be positive", c.Sites)
	}
	if c.End <= c.Start {
		return fmt.Errorf("faults: GrayStormConfig window [%d, %d) is empty", c.Start, c.End)
	}
	if c.MeanDuration <= 0 || c.MeanGap <= 0 {
		return fmt.Errorf("faults: GrayStormConfig needs positive MeanDuration and MeanGap")
	}
	if c.SlowMin < 1 || c.SlowMax < c.SlowMin {
		return fmt.Errorf("faults: GrayStormConfig needs 1 <= SlowMin (%d) <= SlowMax (%d)", c.SlowMin, c.SlowMax)
	}
	if c.RampFraction < 0 || c.RampFraction > 1 || c.FlapFraction < 0 || c.FlapFraction > 1 {
		return fmt.Errorf("faults: GrayStormConfig fractions out of [0,1]")
	}
	return nil
}

// GrayStorm generates a deterministic latency storm: a Poisson sequence of
// per-site slowdown episodes, each flat, ramped, or flapping. The schedule
// is a pure function of (seed, cfg). It panics on an invalid config.
func GrayStorm(seed uint64, cfg GrayStormConfig) *LinkSchedule {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	src := rng.New(seed ^ 0x67a15701) // distinct stream from Storm's and churn's
	ls := NewLinkSchedule()
	t := float64(cfg.Start) + src.Exp(cfg.MeanGap)
	for int64(t) < cfg.End {
		start := int64(t)
		end := min(start+2+int64(src.Exp(cfg.MeanDuration)), cfg.End)
		site := src.Intn(cfg.Sites)
		slow := cfg.SlowMin + int64(src.Uint64n(uint64(cfg.SlowMax-cfg.SlowMin+1)))
		switch {
		case src.Bernoulli(cfg.FlapFraction):
			ls.AddFlap(start, end, []int{site}, slow, 4, 2)
		case src.Bernoulli(cfg.RampFraction):
			ls.AddSiteSlow(start, end, site, slow, (end-start)/2)
		default:
			ls.AddSiteSlow(start, end, site, slow, 0)
		}
		t += src.Exp(cfg.MeanGap)
	}
	return ls
}
