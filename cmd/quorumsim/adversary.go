package main

import (
	"quorumkit/internal/cluster"
	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/workload"
)

// The three canonical adversarial scenarios — drifting diurnal workload,
// flash crowds, and a partition storm layered on correlated regional
// shocks — that the adversary and strategy-adversity suites replay
// (regret.go) and score against the epoch oracle (the optimizer re-run
// with hindsight).

// advRegions carves the 9-site ring into three 3-site regions.
func advRegions() [][]int {
	return [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}}
}

// advScenarios builds the scenario suite. Each config is pure in (seed,
// steps): the daemon-on and daemon-off replays see identical stimuli.
func advScenarios(seed uint64, steps int) []scenario {
	const sites = 9
	links := graph.Ring(sites).M()
	base := func(mean float64) cluster.AdversaryConfig {
		return cluster.AdversaryConfig{
			Seed: seed, Steps: steps, Sites: sites, Links: links,
			Churn:  soakChurn(),
			Health: soakHealth(mean),
		}
	}

	diurnal := base(0.6)
	diurnal.Workload = workload.Diurnal{Period: 400, Mean: 0.6, Amplitude: 0.3}

	flash := base(0.45)
	fc := workload.FlashCrowd{
		Base: 0.3, Flash: 0.95,
		Start: 200, Duration: 80, Every: 400, RateBoost: 4,
	}
	flash.Workload = fc
	flash.Rate = fc

	storm := base(0.75)
	storm.Workload = workload.Constant(0.75)
	storm.Churn.Regions = advRegions()[:2]
	storm.Churn.ShockMTBF, storm.Churn.ShockMTTR = 400, 20
	storm.LinkFaults = faults.Storm(seed, faults.StormConfig{
		Sites: sites, Regions: advRegions(),
		Start: 0, End: int64(steps * 3 / 4),
		MeanDuration: 40, MeanGap: 70, OneWayFraction: 0.25,
	})

	return []scenario{
		{"diurnal-alpha", false, diurnal},
		{"flash-crowd", false, flash},
		{"partition-storm", false, storm},
	}
}
