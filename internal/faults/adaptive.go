package faults

import "sort"

// Adaptive adversaries: fault generators whose next move is a
// deterministic function of the system's *current* configuration — the
// installed quorum assignment and the detector's suspicion set — rather
// than a pre-compiled timetable. This is the worst-case shape for a
// self-healing daemon: a fixed storm eventually misses the quorum, but an
// adversary that re-reads the assignment after every reassignment keeps
// degrading exactly the sites the read quorum depends on.
//
// Determinism is preserved by construction: Advise is a pure function of
// the view, and the harness applies the returned actions by appending to
// its (single-goroutine) private copy of the scenario's LinkSchedule at
// step boundaries, so a replay with the same runtime decisions produces
// the same fault history. Adaptive runs are therefore reproducible but — by
// design — not identical across daemon-on and daemon-off replays: the
// adversary reacts to what the daemon does.

// AdversaryView is the system state an adaptive adversary conditions on.
type AdversaryView struct {
	Step      int64
	QR, QW    int    // the currently installed assignment
	Votes     []int  // per-site votes
	Suspected []bool // per-site: suspected by at least one detector view
}

// GrayAction is one move: a slowdown of (or a one-way cut around) a set of
// target sites over [Start, End).
type GrayAction struct {
	Cut   bool  // true: one-way cut targets→rest; false: slowdown of the targets
	Sites []int // target sites
	Start int64
	End   int64
	Slow  int64 // added delivery slots per direction (slowdowns only)
}

// Apply appends one move to the schedule, over a topology of `sites` sites:
// a one-way cut of the targets' outbound traffic (their acks never come
// home — the gray-adjacent cut) or a slowdown of each target. A move with
// no targets, an empty window, nobody left to cut the targets off from, or
// no slowdown to add changes nothing.
func (ls *LinkSchedule) Apply(act GrayAction, sites int) {
	switch {
	case len(act.Sites) == 0 || act.End <= act.Start:
	case act.Cut:
		if rest := complement(act.Sites, sites); len(rest) > 0 {
			ls.AddOneWay(act.Start, act.End, act.Sites, rest)
		}
	case act.Slow >= 1:
		for _, s := range act.Sites {
			ls.AddSiteSlow(act.Start, act.End, s, act.Slow, 0)
		}
	}
}

// AdaptiveAdversary plans the next actions from the current view. Advise
// must be a pure function of the view (no hidden clock or randomness that
// the view does not determine), so runs replay deterministically.
type AdaptiveAdversary interface {
	Advise(v AdversaryView) []GrayAction
}

// QRCritical is the canonical adaptive adversary: every Every steps it
// degrades the q_r-critical sites — the Top highest-vote sites the
// detector does not already suspect, i.e. exactly the healthy capacity the
// installed read quorum leans on. Most moves are gray (slowdowns a
// miss-count detector misreads as deaths); every CutEvery-th move is a
// real one-way cut, so the daemon can never write the adversary off as
// noise. A reassignment that shifts votes or quorums shifts the next
// target set with it.
type QRCritical struct {
	Every    int64 // planning period in steps (>= 1)
	Duration int64 // action length in steps
	Slow     int64 // slowdown slots per direction
	Top      int   // how many critical sites to degrade per move
	CutEvery int64 // every k-th move is a one-way cut (0 = never cut)
}

// Advise implements AdaptiveAdversary.
func (q QRCritical) Advise(v AdversaryView) []GrayAction {
	every := q.Every
	if every < 1 {
		every = 1
	}
	if v.Step%every != 0 || q.Top < 1 || q.Duration < 1 {
		return nil
	}
	// Rank candidate sites by votes (descending, id ascending) among the
	// unsuspected — the sites whose votes the installed q_r actually
	// counts on right now.
	order := make([]int, 0, len(v.Votes))
	for s := range v.Votes {
		if len(v.Suspected) > s && v.Suspected[s] {
			continue
		}
		order = append(order, s)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if v.Votes[a] != v.Votes[b] {
			return v.Votes[a] > v.Votes[b]
		}
		return a < b
	})
	top := q.Top
	if top > len(order) {
		top = len(order)
	}
	if top == 0 {
		return nil
	}
	targets := append([]int(nil), order[:top]...)
	move := v.Step / every
	act := GrayAction{
		Sites: targets,
		Start: v.Step,
		End:   v.Step + q.Duration,
		Slow:  q.Slow,
	}
	if q.CutEvery > 0 && move%q.CutEvery == q.CutEvery-1 {
		act.Cut = true
	}
	return []GrayAction{act}
}
