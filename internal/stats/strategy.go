package stats

import "fmt"

// StrategyCounters is the observability snapshot of the strategy serving
// layer: installs, operations served off a sampled quorum, resample and
// fallback traffic, and the daemon's survivor-restricted re-solves. The
// zero value is ready to use, mirroring HealthCounters.
type StrategyCounters struct {
	// Serving.
	Installs       int64 // strategies installed (initial or re-solved)
	SampledReads   int64 // reads granted off a sampled read quorum
	SampledWrites  int64 // writes granted off a sampled write quorum
	Resamples      int64 // sampled quorums with an unreachable member, redrawn
	Fallbacks      int64 // ops that exhausted the resample budget and fell back
	StaleFallbacks int64 // ops that found the strategy version stale and fell back

	// Availability-aware re-solving.
	Resolves     int64 // daemon re-solves that installed a certified strategy
	ResolveFails int64 // re-solves that degraded to deterministic serving
	// ResolveSolves counts the re-solves that ran the LP cold; the rest
	// re-installed a memoized outcome. String leaves it out: it measures
	// solver work, not serving behaviour.
	ResolveSolves int64
}

// String renders the counters as a compact two-line report.
func (c StrategyCounters) String() string {
	return fmt.Sprintf(
		"strategy: installs=%d sampled-reads=%d sampled-writes=%d resamples=%d fallbacks=%d stale=%d\n"+
			"resolve:  installed=%d degraded=%d",
		c.Installs, c.SampledReads, c.SampledWrites, c.Resamples, c.Fallbacks, c.StaleFallbacks,
		c.Resolves, c.ResolveFails)
}
