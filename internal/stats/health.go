package stats

import "fmt"

// HealthCounters is the observability snapshot of the self-healing layer:
// failure-detector traffic and verdicts, adaptive-daemon decisions, and
// graceful-degradation transitions. The zero value is ready to use;
// runtimes accumulate into one and expose copies through their snapshots,
// mirroring ChaosCounters.
type HealthCounters struct {
	// Failure detector.
	HeartbeatsSent int64 // heartbeat probes issued
	HeartbeatAcks  int64 // acknowledgements received (deduplicated)
	Suspicions     int64 // peers newly suspected (miss count reached threshold)
	Unsuspicions   int64 // suspected peers that answered again
	LateAcks       int64 // acks past the miss-count deadline, misread as misses

	// Adaptive reassignment daemon.
	DaemonTicks     int64 // daemon steps executed
	DaemonTriggers  int64 // steps where a trigger condition held
	DaemonReassigns int64 // optimizer runs that installed a new assignment
	DaemonNoChanges int64 // optimizer runs that kept the incumbent
	DaemonErrors    int64 // optimizer runs that failed (typed errors)
	CooldownSkips   int64 // triggers suppressed by the rate limiter
	NotLeaderSkips  int64 // triggers deferred to a smaller-id component peer
	DegradedSkips   int64 // triggers with no reachable write quorum
	SyncRounds      int64 // version-divergence repair rounds issued

	// Graceful degradation.
	Degradations   int64 // transitions out of healthy mode
	Healings       int64 // transitions back to healthy mode
	DegradedReads  int64 // reads rejected fast with ErrUnavailable
	DegradedWrites int64 // writes rejected fast with ErrDegradedWrites/ErrUnavailable
}

// String renders the counters as a compact three-line report.
func (c HealthCounters) String() string {
	return fmt.Sprintf(
		"detector: heartbeats=%d acks=%d suspicions=%d unsuspicions=%d late-acks=%d\n"+
			"daemon:   ticks=%d triggers=%d reassigns=%d no-change=%d errors=%d skips(cooldown=%d leader=%d degraded=%d) syncs=%d\n"+
			"degrade:  down=%d healed=%d rejected-reads=%d rejected-writes=%d",
		c.HeartbeatsSent, c.HeartbeatAcks, c.Suspicions, c.Unsuspicions, c.LateAcks,
		c.DaemonTicks, c.DaemonTriggers, c.DaemonReassigns, c.DaemonNoChanges,
		c.DaemonErrors, c.CooldownSkips, c.NotLeaderSkips, c.DegradedSkips, c.SyncRounds,
		c.Degradations, c.Healings, c.DegradedReads, c.DegradedWrites)
}
