package main

import (
	"fmt"
	"os"

	"quorumkit/internal/cluster"
	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
)

// soakChurn is the churn regime the soak CLI exercises: links flap hard
// (partitioning the ring into arcs most of the time), sites fail rarely and
// repair fast. Under this regime a static majority assignment denies most
// operations, which is exactly the condition the adaptive daemon exists to
// repair.
func soakChurn() faults.ChurnConfig {
	return faults.ChurnConfig{
		SiteMTBF: 250, SiteMTTR: 25,
		LinkMTBF: 60, LinkMTTR: 25,
	}
}

// soakHealth is the daemon tuning for the soak: the optimizer must chase
// the workload's actual read fraction.
func soakHealth(alpha float64) cluster.HealthConfig {
	cfg := cluster.DefaultHealthConfig()
	cfg.Alpha = alpha
	return cfg
}

// soakOnce replays the soak scenario on a fresh ring runtime, observed
// through sink. On the deterministic runtime with the daemon on it is the
// reproducible slice of what churn runs, which is what the golden artifact
// tests pin down.
func soakOnce(sink *obsSink, async, daemon bool, seed uint64, ops, sites int, alpha float64) (*cluster.AdversaryRun, error) {
	return replay(cluster.SoakScenario(seed, ops, sites, graph.Ring(sites).M(), alpha,
		soakChurn(), daemon, soakHealth(alpha)), async, sink)
}

// soakLine is the churn report's one line per run: what the soak asks of a
// run (availability, post-heal recovery, convergence, 1SR), not the regret
// accounting AdversaryRun.String leads with.
func soakLine(r *cluster.AdversaryRun) string {
	verdict := "1SR OK"
	if r.ViolationErr != nil {
		verdict = "VIOLATION: " + r.ViolationErr.Error()
	}
	conv := "converged"
	if !r.Converged {
		conv = "DIVERGED " + fmt.Sprint(r.FinalVersions)
	}
	return fmt.Sprintf(
		"churn %d ops %.3f avail (%d/%d reads, %d/%d writes, %d degraded-fastfail, %d site / %d link events, %d amnesias); settle %d ops %.3f avail; %s; %s",
		r.Ops, r.Availability(), r.GrantedReads, r.Reads, r.GrantedWrites, r.Writes,
		r.DegradedRejects, r.SiteEvents, r.LinkEvents, r.Amnesias,
		r.SettleOps, r.SettleAvailability(), conv, verdict)
}

// runChurn runs the churn soak for both runtimes over several seeds, daemon
// on and off on the identical schedule, and prints per-run reports plus the
// three verdicts the harness asserts: one-copy serializability on every
// run, post-churn assignment-version convergence with the daemon on, and
// daemon-on availability at or above daemon-off on every seed (strictly
// above in aggregate). Exit status is non-zero when any verdict fails.
func runChurn(seeds, ops, sites int, alpha float64, baseSeed uint64, sink *obsSink) int {
	status := 0
	for _, rtName := range []string{"deterministic", "async"} {
		var sumOn, sumOff float64
		perSeedOK := true
		for s := 0; s < seeds; s++ {
			seed := baseSeed + uint64(s)
			var runs [2]*cluster.AdversaryRun
			for i, daemon := range []bool{false, true} {
				var err error
				if runs[i], err = soakOnce(sink, rtName == "async", daemon, seed, ops, sites, alpha); err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 2
				}
			}
			off, on := runs[0], runs[1]
			fmt.Printf("runtime=%-13s seed=%d daemon=off %s\n", rtName, seed, soakLine(off))
			fmt.Printf("runtime=%-13s seed=%d daemon=on  %s\n", rtName, seed, soakLine(on))
			fmt.Printf("  health: %v\n", on.Health)
			if off.ViolationErr != nil || on.ViolationErr != nil {
				fmt.Printf("  FAIL: one-copy serializability violated\n")
				status = 1
			}
			if n := off.MinorityWrites + on.MinorityWrites; n > 0 {
				fmt.Printf("  FAIL: %d writes granted from a minority of votes\n", n)
				status = 1
			}
			if !on.Converged {
				fmt.Printf("  FAIL: assignment versions diverged after healing: %v\n", on.FinalVersions)
				status = 1
			}
			if on.Availability() < off.Availability() {
				perSeedOK = false
			}
			sumOn += on.Availability()
			sumOff += off.Availability()
		}
		fmt.Printf("runtime=%-13s mean availability: daemon on %.3f vs off %.3f over %d seeds\n",
			rtName, sumOn/float64(seeds), sumOff/float64(seeds), seeds)
		if !perSeedOK || sumOn <= sumOff {
			fmt.Printf("  FAIL: self-healing daemon did not improve availability\n")
			status = 1
		}
	}
	if status == 0 {
		fmt.Println("churn soak: all verdicts OK (1SR, convergence, availability)")
	}
	return status
}
