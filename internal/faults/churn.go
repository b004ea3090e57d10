package faults

import (
	"fmt"

	"quorumkit/internal/rng"
)

// Churn drives seeded site/link failure-repair renewal processes over long
// horizons, the fault-arrival side of the soak harness. Every element (site
// or link) alternates independently between an up phase and a down phase
// with exponentially distributed holding times — the classic alternating
// renewal model the paper's availability analysis assumes — discretized
// onto the harness's integer step clock.
//
// The schedule is a pure function of (seed, config): the event sequence is
// drawn once from a dedicated rng substream per element class, so replaying
// the same churn against two runtimes (or with the daemon on and off)
// injects exactly the same topology history.

// ChurnKind identifies one topology event.
type ChurnKind uint8

// Topology event kinds.
const (
	SiteFail ChurnKind = iota
	SiteRepair
	LinkFail
	LinkRepair
)

// String implements fmt.Stringer.
func (k ChurnKind) String() string {
	switch k {
	case SiteFail:
		return "site-fail"
	case SiteRepair:
		return "site-repair"
	case LinkFail:
		return "link-fail"
	case LinkRepair:
		return "link-repair"
	default:
		return fmt.Sprintf("ChurnKind(%d)", uint8(k))
	}
}

// ChurnEvent is one scheduled topology change.
type ChurnEvent struct {
	Kind  ChurnKind
	Index int // site or link index
}

// ChurnConfig sets the mean holding times of the renewal processes, in
// harness steps. A zero MTBF disables churn for that element class (MTTR is
// then ignored); a zero MTTR with a positive MTBF is invalid — a failed
// element would never repair within the renewal model.
type ChurnConfig struct {
	SiteMTBF float64 // mean up duration of a site
	SiteMTTR float64 // mean down duration of a site
	LinkMTBF float64 // mean up duration of a link
	LinkMTTR float64 // mean down duration of a link

	// Correlated regional shocks, Marshall–Olkin style: on top of the
	// independent per-site renewal above, each region in Regions is hit
	// by a shared shock process (its own alternating renewal with
	// ShockMTBF/ShockMTTR) that takes every member site down *together*
	// for the shock's duration. A site is effectively down when its own
	// process or any covering shock holds it down. A zero ShockMTBF
	// disables shocks; the schedule is then bit-identical to one built
	// without these fields.
	Regions   [][]int
	ShockMTBF float64 // mean gap between shocks hitting a region
	ShockMTTR float64 // mean shock duration
}

// Validate rejects nonsensical configurations.
func (c ChurnConfig) Validate() error {
	for _, p := range []struct {
		name       string
		mtbf, mttr float64
	}{
		{"Site", c.SiteMTBF, c.SiteMTTR},
		{"Link", c.LinkMTBF, c.LinkMTTR},
	} {
		if p.mtbf < 0 || p.mttr < 0 {
			return fmt.Errorf("faults: %sMTBF/%sMTTR must be non-negative", p.name, p.name)
		}
		if p.mtbf > 0 && p.mttr <= 0 {
			return fmt.Errorf("faults: %sMTBF=%g needs a positive %sMTTR", p.name, p.mtbf, p.name)
		}
	}
	if c.ShockMTBF < 0 || c.ShockMTTR < 0 {
		return fmt.Errorf("faults: ShockMTBF/ShockMTTR must be non-negative")
	}
	if c.ShockMTBF > 0 {
		if c.ShockMTTR <= 0 {
			return fmt.Errorf("faults: ShockMTBF=%g needs a positive ShockMTTR", c.ShockMTBF)
		}
		if len(c.Regions) == 0 {
			return fmt.Errorf("faults: ShockMTBF=%g needs at least one region", c.ShockMTBF)
		}
	}
	for ri, region := range c.Regions {
		if len(region) == 0 {
			return fmt.Errorf("faults: churn region %d is empty", ri)
		}
	}
	return nil
}

// renewal is one class of elements (sites, links or regional shocks), each
// alternating independently between an up phase of mean mtbf and a down
// phase of mean mttr, its holding times drawn from src.
type renewal struct {
	down       []bool
	next       []float64 // next toggle time; never when the class is disabled
	mtbf, mttr float64
	src        *rng.Source
	fail       ChurnKind // the class's fail kind; its repair kind is fail+1
}

// never is a sentinel toggle time for disabled element classes.
const never = 1e300

// newRenewal starts n elements up, drawing each one's first failure time in
// index order.
func newRenewal(n int, mtbf, mttr float64, src *rng.Source, fail ChurnKind) renewal {
	r := renewal{down: make([]bool, n), next: make([]float64, n), mtbf: mtbf, mttr: mttr, src: src, fail: fail}
	for i := range r.next {
		r.next[i] = never
		if mtbf > 0 {
			r.next[i] = src.Exp(mtbf)
		}
	}
	return r
}

// advance toggles every element whose next toggle time is at or before t, in
// (element-index, occurrence) order. It returns out with the toggles
// appended, or untouched when the class is advanced silently (report false).
// The scan that finds nothing due is the common step, so it is kept small
// enough to inline into Step.
func (r *renewal) advance(t float64, out []ChurnEvent, report bool) []ChurnEvent {
	for i, at := range r.next {
		if at <= t {
			out = r.toggle(i, t, out, report)
		}
	}
	return out
}

// toggle flips element i until its next toggle time is past t, drawing each
// following holding time as it goes.
func (r *renewal) toggle(i int, t float64, out []ChurnEvent, report bool) []ChurnEvent {
	for r.next[i] <= t {
		kind, hold := r.fail, r.mttr
		if r.down[i] {
			kind, hold = r.fail+1, r.mtbf
		}
		r.down[i] = !r.down[i]
		if report {
			out = append(out, ChurnEvent{Kind: kind, Index: i})
		}
		r.next[i] += r.src.Exp(hold)
	}
	return out
}

// Churn is a deterministic alternating renewal schedule over the sites and
// links of one topology. It is not safe for concurrent use; the soak
// harness advances it from a single goroutine.
type Churn struct {
	sites, links renewal // both on one substream, sites drawn first

	// Shock layer (zero when disabled). Shock randomness comes from a
	// separate substream so that enabling shocks never perturbs the base
	// per-element schedules of the same seed.
	shocks  renewal // one element per region; never reported, only diffed
	shockOf [][]int // site -> indices of covering regions
	effDown []bool  // effective per-site state last reported; nil = disabled
}

// NewChurn builds the renewal schedule for a topology with the given number
// of sites and links. It panics on an invalid config (churn schedules are
// constructed from trusted test/CLI configuration, like fault plans).
func NewChurn(seed uint64, sites, links int, cfg ChurnConfig) *Churn {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	src := rng.New(seed ^ 0x5eaf00d)
	c := &Churn{sites: newRenewal(sites, cfg.SiteMTBF, cfg.SiteMTTR, src, SiteFail)}
	c.links = newRenewal(links, cfg.LinkMTBF, cfg.LinkMTTR, src, LinkFail)
	if cfg.ShockMTBF > 0 {
		c.shockOf = make([][]int, sites)
		c.effDown = make([]bool, sites)
		for ri, region := range cfg.Regions {
			for _, s := range region {
				if s < 0 || s >= sites {
					panic(fmt.Sprintf("faults: churn region %d has site %d out of [0,%d)", ri, s, sites))
				}
				c.shockOf[s] = append(c.shockOf[s], ri)
			}
		}
		c.shocks = newRenewal(len(cfg.Regions), cfg.ShockMTBF, cfg.ShockMTTR, rng.New(seed^0x0c0a5717ed), 0)
	}
	return c
}

// Step returns every event scheduled at or before time t, in deterministic
// (element-index, occurrence) order, advancing each element's renewal
// process past t. Call with strictly increasing t.
//
// With shocks enabled, site events report changes of the *effective* state
// (own process OR any covering shock): toggles that cancel out within one
// step are coalesced, and a site already held down by a shock emits no
// event when its own process fails underneath.
func (c *Churn) Step(t float64) []ChurnEvent {
	var out []ChurnEvent
	if c.effDown == nil {
		out = c.sites.advance(t, out, true)
	} else {
		// Advance the base per-site processes silently, then the shared
		// shocks, then diff the effective state in site-index order.
		c.sites.advance(t, nil, false)
		c.shocks.advance(t, nil, false)
		for i, down := range c.sites.down {
			for _, r := range c.shockOf[i] {
				down = down || c.shocks.down[r]
			}
			if down != c.effDown[i] {
				c.effDown[i] = down
				kind := SiteRepair
				if down {
					kind = SiteFail
				}
				out = append(out, ChurnEvent{Kind: kind, Index: i})
			}
		}
	}
	return c.links.advance(t, out, true)
}

// DownCounts reports how many sites and links the schedule currently holds
// down (for harness diagnostics). With shocks enabled, the site count is
// the effective state the schedule has reported through Step.
func (c *Churn) DownCounts() (sites, links int) {
	siteState := c.sites.down
	if c.effDown != nil {
		siteState = c.effDown
	}
	for _, d := range siteState {
		if d {
			sites++
		}
	}
	for _, d := range c.links.down {
		if d {
			links++
		}
	}
	return sites, links
}

// ActiveShocks reports how many regional shocks are currently in progress
// (always 0 when shocks are disabled).
func (c *Churn) ActiveShocks() int {
	n := 0
	for _, d := range c.shocks.down {
		if d {
			n++
		}
	}
	return n
}
