package main

import (
	"fmt"
	"math"
	"os"
	"slices"

	"quorumkit/internal/cluster"
	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/workload"
)

// The gray-failure scenarios: the network degrades without dying —
// heavy-tailed latency spikes, flapping slow sites, and an adaptive
// adversary that targets whatever the installed assignment depends on.
// The gray suite (regret.go) replays them under three postures on the
// identical seeded stimulus: no daemon, the miss-count detector (which
// misreads slow as dead), and the φ-accrual detector (which does not);
// the slow-replica scenario carries the hedged read path's tail-latency
// win instead.

// grayScenarios builds the suite. Each config is pure in (seed, steps).
func grayScenarios(seed uint64, steps int) []scenario {
	const sites = 9
	links := graph.Ring(sites).M()

	// slow-replica: no churn, no cuts, no daemon — pure gray slowness.
	// One site pair's link turns slow at a time, rotating around the
	// ring faster than the per-site latency estimators adapt: right
	// after each rotation the predicted-fastest read quorum still
	// contains the now-slow replica, and backup probes cover exactly
	// that lag. (Slowing a whole site would also slow every read the
	// site itself coordinates — a floor no hedge can beat, since all
	// its spares are equally slow.) A mild bounded heavy tail adds
	// per-link jitter on top. The hedged run must shrink the read tail
	// by at least 20% at p99.
	rotating := faults.NewLinkSchedule().
		SetHeavyTail(seed^0x9e37, 0.05, 6, 12)
	const rotateEvery = 60
	for w := 0; w*rotateEvery < steps; w++ {
		start := int64(w * rotateEvery)
		end := start + rotateEvery
		a, b := w%sites, (w+3)%sites
		rotating.AddLinkSlow(start, end, []int{a}, []int{b}, 25, 0)
		rotating.AddLinkSlow(start, end, []int{b}, []int{a}, 25, 0)
	}
	slow := cluster.AdversaryConfig{
		Seed: seed, Steps: steps, Sites: sites, Links: links,
		Workload:      workload.Constant(0.9),
		Health:        soakHealth(0.9),
		RecordLatency: true,
		LinkFaults:    rotating,
	}

	// gray-storm: real faults and gray slowness at once. Site/link churn
	// and a partition storm give the daemon genuine work; a gray storm
	// layered on top feeds the miss-count detector late acks to misread.
	stormCfg := cluster.AdversaryConfig{
		Seed: seed, Steps: steps, Sites: sites, Links: links,
		Workload: workload.Constant(0.75),
		Churn:    soakChurn(),
		Health:   soakHealth(0.75),
		LinkFaults: faults.Storm(seed, faults.StormConfig{
			Sites: sites, Regions: advRegions(),
			Start: 0, End: int64(steps * 3 / 4),
			MeanDuration: 40, MeanGap: 70, OneWayFraction: 0.25,
		}).Merge(faults.GrayStorm(seed, faults.GrayStormConfig{
			Sites: sites, Start: 0, End: int64(steps * 3 / 4),
			MeanDuration: 30, MeanGap: 50,
			SlowMin: 8, SlowMax: 25,
			RampFraction: 0.25, FlapFraction: 0.25,
		})),
	}

	// adaptive-qr: the adversary reads the installed assignment and the
	// suspicion set each step and cuts the top-vote unsuspected sites —
	// the ones the read quorum leans on — every move. The gray slowness
	// comes from an independent background storm, deliberately
	// uncorrelated with the cuts: were the adversary itself to slow its
	// next victims, a miss-count detector's false suspicions would
	// telegraph the coming cut and pre-degrade the targets, rewarding
	// exactly the misreading this suite exists to punish.
	adaptive := cluster.AdversaryConfig{
		Seed: seed, Steps: steps, Sites: sites, Links: links,
		Workload: workload.Constant(0.75),
		Churn: faults.ChurnConfig{
			SiteMTBF: 500, SiteMTTR: 25,
			LinkMTBF: 120, LinkMTTR: 25,
		},
		Health: soakHealth(0.75),
		Adaptive: &faults.QRCritical{
			Every: 20, Duration: 15, Slow: 0, Top: 2, CutEvery: 1,
		},
		LinkFaults: faults.GrayStorm(seed^0xad, faults.GrayStormConfig{
			Sites: sites, Start: 0, End: int64(steps),
			MeanDuration: 30, MeanGap: 40,
			SlowMin: 8, SlowMax: 10,
			RampFraction: 0.25, FlapFraction: 0.25,
		}),
	}

	return []scenario{
		{"slow-replica", true, slow},
		{"gray-storm", false, stormCfg},
		{"adaptive-qr", false, adaptive},
	}
}

// percentile returns the p-quantile of the latencies (slots) by rank.
func percentile(lat []int64, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := slices.Clone(lat)
	slices.Sort(s)
	return float64(s[max(0, int(math.Ceil(p*float64(len(s))))-1)])
}

// runHedgeDemo is the hedge quick look: the slow-replica scenario
// unhedged then hedged, printing the read latency distribution shift.
func runHedgeDemo(steps int, seed uint64, sink *obsSink) int {
	sc := grayScenarios(seed, steps)[0]
	if !sc.hedge {
		panic("grayfail: first scenario must be the hedge scenario")
	}
	for _, m := range hedgeModes {
		cfg := sc.cfg
		m.apply(&cfg)
		run, err := replay(cfg, false, sink)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Printf("%-8s: %5d reads  p50=%4.0f  p99=%4.0f slots  probes=%d wins=%d\n",
			m.name, len(run.ReadLatencies),
			percentile(run.ReadLatencies, 0.50), percentile(run.ReadLatencies, 0.99),
			run.HedgeProbes, run.HedgeWins)
	}
	return 0
}
