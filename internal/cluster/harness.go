package cluster

import (
	"errors"
	"fmt"

	"quorumkit/internal/faults"
	"quorumkit/internal/history"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
	"quorumkit/internal/stats"
	"quorumkit/internal/strategy"
)

// SoakRuntime is the serving subset of Runtime: self-healing, the serving
// ladder, topology events and amnesia. The name survives only because
// bench/serve.go embeds it in its own "what a serving repetition needs"
// interface. It is a subset Runtime embeds, not an alias of Runtime, so that
// interface keeps asking for the serving surface alone and every method is
// still declared exactly once.
type SoakRuntime interface {
	EnableSelfHealing(cfg HealthConfig)
	ServeRead(x int) Outcome
	ServeWrite(x int, value int64) Outcome
	DaemonStep(x int) DaemonReport
	NodeVersion(x int) int64
	HealthCounters() stats.HealthCounters
	FailSite(i int)
	RepairSite(i int)
	FailLink(l int)
	RepairLink(l int)
	WipeState(x int)
	TryRejoin(x int) bool
}

// Runtime is the one surface the harnesses (RunChaos, RunAdversary, the
// CLI and the cross-runtime tests) drive. Exactly two types implement it,
// both in full: the deterministic Cluster and the concurrent Async.
type Runtime interface {
	SoakRuntime

	// The fault-hardened protocol under a message and a disk fault plan.
	EnableChaos(src faults.Source)
	EnableDiskChaos(plan *faults.DiskPlan)
	ChaosRead(x int) Outcome
	ChaosWrite(x int, value int64) Outcome
	ChaosReassign(x int, a quorum.Assignment) Outcome
	Recover(x int) bool
	Crashed() []int
	ChaosCounters() stats.ChaosCounters

	// Scheduled link faults (cuts and gray slowdowns) on one clock.
	EnableLinkFaults(ls *faults.LinkSchedule)
	SetPartitionTime(t int64)
	PartitionDrops() int64

	// Randomized-strategy serving (strategy.go).
	InstallStrategy(st strategy.Strategy, assign quorum.Assignment, version int64, budget int, seed uint64) error
	StrategyCounters() stats.StrategyCounters
	NodeAssignment(x int) quorum.Assignment

	Observer() *obs.Registry
}

var (
	_ Runtime = (*Cluster)(nil)
	_ Runtime = (*Async)(nil)
)

// OpResult is one scheduled step's outcome in a comparable form: errors
// are flattened to strings so two runs (or two runtimes) can be compared
// with reflect.DeepEqual.
type OpResult struct {
	Step     int
	Kind     string // "read", "write", "reassign", "churn"
	Site     int
	Granted  bool
	Value    int64
	Stamp    int64
	Err      string
	Attempts int
	Residues []Residue
}

// ChaosRun is the full record of one harness run.
type ChaosRun struct {
	Log      *history.Log
	Results  []OpResult
	Counters stats.ChaosCounters

	Reads, Writes, Reassigns int
	GrantedReads             int
	GrantedWrites            int
}

// RunChaos drives steps scheduled operations against a chaos-enabled
// runtime. The schedule — operation kinds, coordinators, link churn, new
// assignments — is drawn purely from schedSeed, never from outcomes, so
// the same (plan, schedSeed) pair issues an identical schedule to both
// runtimes. Crashed nodes recover when the fault plan says so, modeling
// repair that is independent of the workload. Every completed operation is
// fed into the history log: granted reads/writes as themselves, residues
// of failed writes as indeterminate writes. The caller asserts
// Log.Check() == nil — that is the safety property faults must not break.
//
// One bookkeeping refinement keeps the checker honest under disk loss: a
// coordinator that crashes mid-apply before any apply message clears the
// fault plan (Residue.Spread == 0) holds the only copy of the pending
// value on its own disk, and it stays down — serving nothing — until
// recovery. If that recovery then finds the disk lost or corrupt (the node
// comes back amnesiac), the sole copy is gone: the harness records a write
// loss so the checker stops expecting the value to surface and tolerates
// the amnesiac coordinator reissuing the stamp it has forgotten. A clean
// recovery instead forgets the tracking entry — the copy survived and may
// yet surface.
func RunChaos(rt Runtime, plan *faults.Plan, schedSeed uint64, steps, totalVotes, links int) *ChaosRun {
	src := rng.New(schedSeed)
	run := &ChaosRun{Log: &history.Log{}}
	n := totalVotes                    // harness topologies use one vote per site
	soleResidue := make(map[int]int64) // crashed site -> stamp only its disk holds
	for step := 0; step < steps; step++ {
		for _, node := range rt.Crashed() {
			if plan.RecoverNow(uint64(step), node) {
				stamp, held := soleResidue[node]
				var amnesiasBefore int64
				if held {
					amnesiasBefore = rt.ChaosCounters().Amnesias
				}
				recovered := rt.Recover(node)
				if held {
					if rt.ChaosCounters().Amnesias > amnesiasBefore {
						// The store was lost or corrupt: the only copy of
						// the pending value died with it.
						run.Log.RecordWriteLoss(node, stamp, float64(step))
						delete(soleResidue, node)
					} else if recovered {
						delete(soleResidue, node)
					}
				}
			}
		}
		t := float64(step)
		action := src.Intn(100)
		site := src.Intn(n)
		extra := src.Intn(1 << 30) // one draw reserved per step, schedule stays aligned
		res := OpResult{Step: step, Site: site}
		switch {
		case action < 50: // read
			run.Reads++
			res.Kind = "read"
			out := rt.ChaosRead(site)
			res.fill(out)
			record(run.Log, site, true, 0, out, t)
			if out.Granted {
				run.GrantedReads++
			}
		case action < 85: // write
			run.Writes++
			res.Kind = "write"
			value := int64(step) + 1 // unique per write, required by the checker
			out := rt.ChaosWrite(site, value)
			res.fill(out)
			record(run.Log, site, false, value, out, t)
			if errors.Is(out.Err, ErrCrashed) && len(out.Residue) > 0 {
				// A crash mid-apply ends the op, so the crashing attempt's
				// residue is the last one recorded.
				if last := out.Residue[len(out.Residue)-1]; last.Spread == 0 {
					soleResidue[site] = last.Stamp
				}
			}
			if out.Granted {
				run.GrantedWrites++
			}
		case action < 90: // reassign
			run.Reassigns++
			res.Kind = "reassign"
			qr := 1 + extra%((totalVotes+1)/2)
			a := quorum.Assignment{QR: qr, QW: totalVotes + 1 - qr}
			out := rt.ChaosReassign(site, a)
			res.fill(out)
		default: // link churn
			res.Kind = "churn"
			l := extra % links
			if extra>>16&1 == 0 {
				rt.FailLink(l)
			} else {
				rt.RepairLink(l)
			}
			res.Granted = true
		}
		run.Results = append(run.Results, res)
	}
	run.Counters = rt.ChaosCounters()
	return run
}

// record feeds one completed read or write into the history log: the
// outcome as itself, and every residue a failed write attempt left behind
// as an indeterminate write.
func record(log *history.Log, site int, read bool, value int64, out Outcome, t float64) {
	if read {
		log.RecordRead(site, out.Granted, out.Value, out.Stamp, t)
		return
	}
	for _, r := range out.Residue {
		log.RecordIndeterminateWrite(site, r.Value, r.Stamp, t)
	}
	log.RecordWrite(site, out.Granted, value, out.Stamp, t)
}

// fill copies an Outcome into the comparable result form.
func (r *OpResult) fill(out Outcome) {
	r.Granted = out.Granted
	r.Value, r.Stamp = out.Value, out.Stamp
	r.Attempts = out.Attempts
	r.Residues = out.Residue
	if out.Err != nil {
		r.Err = out.Err.Error()
	}
}

// String summarizes a run.
func (r *ChaosRun) String() string {
	return fmt.Sprintf("%d ops (%d reads %d granted, %d writes %d granted, %d reassigns)",
		len(r.Results), r.Reads, r.GrantedReads, r.Writes, r.GrantedWrites, r.Reassigns)
}
