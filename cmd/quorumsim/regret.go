package main

import (
	"fmt"
	"math"

	"quorumkit/internal/cluster"
	"quorumkit/internal/gate"
	"quorumkit/internal/graph"
	"quorumkit/internal/strategy"
)

// The regret suites (suite adversary | strategy-adversity | gray): every
// scenario is replayed once per mode on the identical seeded stimulus on a
// fresh deterministic 9-site ring and scored against the epoch oracle. The
// suites differ only in their scenarios, their mode list and a few extra
// rows; the loop, the safety verdicts and the gate are shared:
//
//   - every run: one-copy serializability, zero minority writes, and
//     detect + policy + residual regret summing to the regret at 1e-9;
//   - every daemon-on run: assignment versions converge after healing;
//   - modes are listed in order of strictly decreasing regret, and each
//     run must beat the one before it on the same scenario;
//   - the gated mode's regret/op may not drift above the committed
//     baseline by more than regretTolerance.

// scenario names one seeded stimulus. Regret scenarios are replayed once
// per mode of their suite; a hedge scenario runs the unhedged/hedged pair
// instead.
type scenario struct {
	name  string
	hedge bool
	cfg   cluster.AdversaryConfig
}

// regretMode is one posture a scenario is replayed under.
type regretMode struct {
	name  string
	apply func(*cluster.AdversaryConfig)
}

// regretSuite is one row of the suite table.
type regretSuite struct {
	steps     int // default -steps, and what the committed baseline was run at
	scenarios func(seed uint64, steps int) []scenario
	modes     []regretMode
	gated     string // the mode whose regret/op is held to the baseline
	extra     func(run *cluster.AdversaryRun, cfg cluster.AdversaryConfig) []gate.Row
}

// regretTolerance bounds how far the gated mode's regret/op may drift
// above the committed baseline. The replay is deterministic in the seed,
// so the slack only absorbs cross-architecture floating-point variation,
// not real regressions.
const regretTolerance = 0.02

// graySteps is the gray suite's (and hedge's) default run length. minSteps
// is the shortest run a scenario can be built for: the storm scenarios cut
// during the first 3/4 of the run, and that window must not be empty.
const (
	graySteps = 2000
	minSteps  = 2
)

// hedgeRatio is the required tail win on a hedge scenario: hedged p99 at
// or below this fraction of the unhedged p99 (a ≥20% improvement).
const hedgeRatio = 0.8

func asIs(*cluster.AdversaryConfig)       {}
func daemonOn(c *cluster.AdversaryConfig) { c.Daemon = true }

// hedgeModes replace the suite's modes on a hedge scenario: regret is not
// at stake there (nothing fails), the read tail is.
var hedgeModes = []regretMode{
	{"unhedged", asIs},
	{"hedged", func(c *cluster.AdversaryConfig) { c.Hedge = true }},
}

// regretSuiteNamed resolves one of the three regret suites.
func regretSuiteNamed(name string) (regretSuite, error) {
	count := func(name string, v int64) gate.Row { return gate.Row{Name: name, Value: float64(v), Unit: "count"} }
	switch name {
	case "adversary":
		// Self-healing daemon off vs on.
		return regretSuite{
			steps: 2500, scenarios: advScenarios, gated: "on",
			modes: []regretMode{{"off", asIs}, {"on", daemonOn}},
			extra: func(run *cluster.AdversaryRun, _ cluster.AdversaryConfig) []gate.Row {
				return []gate.Row{
					count("partition_drops", run.PartitionDrops),
					{Name: "settle_avail", Value: run.SettleAvailability(), Unit: "ratio"},
				}
			},
		}, nil
	case "strategy-adversity":
		// The same scenarios with a certified randomized strategy installed
		// at boot: frozen (daemon off — the strategy is pinned to the boot
		// assignment version and serving falls back deterministically the
		// moment the topology outgrows it) vs resolve (each suspicion edge
		// re-runs the resilient capacity LP over the survivors and installs
		// only KKT-certified results). Sampled quorums must carry traffic,
		// and every resolve run must install at least one re-solve.
		st, err := strategyAdvSeed(0.75)
		if err != nil {
			return regretSuite{}, err
		}
		install := func(c *cluster.AdversaryConfig) {
			c.Strategy = &st
			c.StrategySeed = c.Seed ^ 0x57a7
		}
		return regretSuite{
			steps: 2500, scenarios: advScenarios, gated: "resolve",
			modes: []regretMode{{"frozen", install}, {"resolve", func(c *cluster.AdversaryConfig) {
				install(c)
				c.Daemon = true
				c.Health.Strategy = cluster.StrategyResolveConfig{Enabled: true}
			}}},
			extra: func(run *cluster.AdversaryRun, cfg cluster.AdversaryConfig) []gate.Row {
				sct := run.Strategy
				sampled := count("sampled", sct.SampledReads+sct.SampledWrites)
				sampled.Min = gate.Bound(1)
				resolves := count("resolves", sct.Resolves)
				if cfg.Health.Strategy.Enabled {
					resolves.Min = gate.Bound(1)
				}
				return []gate.Row{
					sampled,
					count("sampled_reads", sct.SampledReads), count("sampled_writes", sct.SampledWrites),
					count("resamples", sct.Resamples), count("fallbacks", sct.Fallbacks),
					count("stale_fallbacks", sct.StaleFallbacks),
					resolves, count("resolve_fails", sct.ResolveFails),
				}
			},
		}, nil
	case "gray":
		// Daemon off vs the miss-count detector (the default) vs φ-accrual.
		return regretSuite{
			steps: graySteps, scenarios: grayScenarios, gated: "phi",
			modes: []regretMode{{"off", asIs}, {"miss", daemonOn}, {"phi", func(c *cluster.AdversaryConfig) {
				c.Daemon = true
				c.Health.Detector = cluster.DetectorPhi
			}}},
			extra: func(run *cluster.AdversaryRun, _ cluster.AdversaryConfig) []gate.Row {
				return []gate.Row{
					count("false_positives", run.FalsePositives), count("late_acks", run.Health.LateAcks),
					count("hedge_probes", run.HedgeProbes), count("hedge_wins", run.HedgeWins),
					{Name: "read_p50_slots", Value: percentile(run.ReadLatencies, 0.50), Unit: "slots"},
					{Name: "read_p99_slots", Value: percentile(run.ReadLatencies, 0.99), Unit: "slots"},
				}
			},
		}, nil
	}
	return regretSuite{}, fmt.Errorf("no regret suite %q", name)
}

// strategyAdvSeed solves and certifies the boot strategy the
// strategy-adversity scenarios install: the resilient capacity LP over the
// 9 unit-vote ring sites at Majority(9), every sampled quorum surviving
// any single site failure.
func strategyAdvSeed(alpha float64) (strategy.Strategy, error) {
	const sites = 9
	votes := make([]int, sites)
	unit := make([]float64, sites)
	for i := range votes {
		votes[i], unit[i] = 1, 1
	}
	sys, err := strategy.MajoritySystem(votes, unit, unit, unit)
	if err != nil {
		return strategy.Strategy{}, err
	}
	res, err := strategy.OptimizeResilientCapacity(sys, strategy.SingleFr(alpha), 1, strategy.Options{})
	if err != nil {
		return strategy.Strategy{}, err
	}
	if err := res.Certify(1e-6); err != nil {
		return strategy.Strategy{}, fmt.Errorf("seed strategy certificate: %w", err)
	}
	return res.Strategy, nil
}

// replay runs one scenario config on a fresh ring runtime — every suite and
// the churn soak go through here — observed through sink.
func replay(cfg cluster.AdversaryConfig, async bool, sink *obsSink) (*cluster.AdversaryRun, error) {
	g := graph.Ring(cfg.Sites)
	rt, stop, err := newRuntime(g, async)
	if err != nil {
		return nil, err
	}
	defer stop()
	sink.attach(rt)
	return cluster.RunAdversary(rt, graph.NewState(g, nil), cfg), nil
}

// run replays the suite and returns its rows, named
// <scenario>/<mode>.<field>. ok is false when a verdict that relates rows
// to one another (decomposition, ordering) failed; single-row verdicts are
// bounds on the rows, left to gate.Check.
func (s regretSuite) run(name string, steps int, seed uint64, sink *obsSink) (file gate.File, ok bool, err error) {
	if steps == 0 {
		steps = s.steps
	}
	file = gate.File{Suite: name, Seed: seed, Steps: steps}
	ok = true
	failf := func(format string, args ...any) {
		fmt.Printf("  FAIL: "+format+"\n", args...)
		ok = false
	}
	for _, sc := range s.scenarios(seed, steps) {
		modes := s.modes
		if sc.hedge {
			modes = hedgeModes
		}
		var prev *cluster.AdversaryRun
		for i, m := range modes {
			cfg := sc.cfg
			m.apply(&cfg)
			run, err := replay(cfg, false, sink)
			if err != nil {
				return file, false, err
			}
			fmt.Printf("scenario=%-16s mode=%-8s %v\n", sc.name, m.name, run)

			perOp := gate.Row{Name: "regret_per_op", Value: run.RegretPerOp(), Unit: "1/op"}
			if m.name == s.gated {
				perOp.Better, perOp.AbsTol = "lower", regretTolerance
			}
			oneSR := gate.Row{Name: "one_sr", Value: gate.Bool(run.ViolationErr == nil), Min: gate.Bound(1)}
			if run.ViolationErr != nil {
				oneSR.Note = run.ViolationErr.Error()
			}
			converged := gate.Row{Name: "converged", Value: gate.Bool(run.Converged)}
			if cfg.Daemon {
				converged.Min = gate.Bound(1)
			}
			if !run.Converged {
				converged.Note = fmt.Sprint("assignment versions after healing: ", run.FinalVersions)
			}
			rows := append([]gate.Row{
				{Name: "ops", Value: float64(run.Ops), Unit: "count"},
				{Name: "grant_rate", Value: run.Availability(), Unit: "ratio"},
				{Name: "oracle", Value: run.OracleAvailability(), Unit: "ratio"},
				{Name: "regret", Value: run.Regret, Unit: "ops"},
				perOp,
				{Name: "detect_regret", Value: run.DetectRegret, Unit: "ops"},
				{Name: "policy_regret", Value: run.PolicyRegret, Unit: "ops"},
				{Name: "residual_regret", Value: run.ResidualRegret, Unit: "ops"},
				{Name: "minority_writes", Value: float64(run.MinorityWrites), Unit: "count", Max: gate.Bound(0)},
				oneSR, converged,
			}, s.extra(run, cfg)...)
			for _, r := range rows {
				r.Name = sc.name + "/" + m.name + "." + r.Name
				file.Rows = append(file.Rows, r)
			}

			if diff := math.Abs(run.DetectRegret + run.PolicyRegret + run.ResidualRegret - run.Regret); diff > 1e-9 {
				failf("%s/%s: regret decomposition off by %g (detect %.4f + policy %.4f + residual %.4f != %.4f)",
					sc.name, m.name, diff, run.DetectRegret, run.PolicyRegret, run.ResidualRegret, run.Regret)
			}
			switch {
			case prev == nil:
			case sc.hedge:
				was, now := percentile(prev.ReadLatencies, 0.99), percentile(run.ReadLatencies, 0.99)
				file.Rows = append(file.Rows, gate.Row{
					Name: sc.name + ".hedged_p99_ratio", Value: now / was, Unit: "ratio", Max: gate.Bound(hedgeRatio),
					Note: fmt.Sprintf("read p99 %.0f → %.0f slots", was, now),
				})
			case run.Regret >= prev.Regret:
				failf("%s: %s regret %.1f not below %s regret %.1f",
					sc.name, m.name, run.Regret, modes[i-1].name, prev.Regret)
			}
			prev = run
		}
	}
	return file, ok, nil
}
