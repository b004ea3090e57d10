package main

import (
	"math"
	"time"

	"quorumkit/internal/rng"
	"quorumkit/internal/strategy"
)

// solve-ladder: one operation is one certified resilient-capacity solve,
// the call the daemon makes on every suspicion edge and the call an
// operator makes when planning a deployment. Certify is always timed:
// production never installs an uncertified strategy.

// ladderBlock fixes the share of every rung in each block of 100 solves, so
// no percentile sits on the boundary between two rungs: with these shares
// the median is a 9-site enumeration solve (the daemon's scale) and the
// 99th percentile a 31-site column-generation solve.
var ladderBlock = []struct{ sites, per100 int }{
	{5, 20}, {7, 20}, {9, 40}, {11, 17}, // exhaustive enumeration
	{25, 1}, {31, 2}, // column generation
}

const (
	ladderLargeFrom = 25 // sites from which a rung counts as column generation
	ladderGap       = 0.05
	certTol         = 1e-6
)

type ladderRun struct {
	systems []strategy.System
	resil   []byte
	fr      strategy.FrDist
	tr      *tracer

	dig    digest
	tal    ladderTally
	base   ladderTally
	schedS float64
}

type ladderTally struct {
	solves, large, rounds, columns int64
}

func newLadderRun(seed uint64, warm, ops int, tr *tracer) (runner, error) {
	r := &ladderRun{fr: strategy.SingleFr(0.75), tr: tr, dig: fnvOffset}
	t0 := time.Now()
	r.systems, r.resil = ladderSchedule(seed, warm+ops)
	r.schedS = time.Since(t0).Seconds()
	return r, nil
}

// ladderSchedule lays the rungs of each block out in a seeded order and
// draws every system's capacities, latencies and resilience from the seed.
func ladderSchedule(seed uint64, total int) ([]strategy.System, []byte) {
	src := rng.New(seed ^ 0x1adde5)
	var block []int
	for _, rung := range ladderBlock {
		for k := 0; k < rung.per100; k++ {
			block = append(block, rung.sites)
		}
	}
	order := src.Perm(len(block))
	systems := make([]strategy.System, total)
	resil := make([]byte, total)
	for i := range systems {
		n := block[order[i%len(block)]]
		sys := strategy.System{
			Votes: make([]int, n), QR: n/2 + 1, QW: n/2 + 1,
			ReadCap: make([]float64, n), WriteCap: make([]float64, n), Latency: make([]float64, n),
		}
		for x := 0; x < n; x++ {
			sys.Votes[x] = 1
			sys.ReadCap[x] = 1000 + 3000*src.Float64()
			sys.WriteCap[x] = 500 + 1500*src.Float64()
			sys.Latency[x] = 1 + 9*src.Float64()
		}
		systems[i] = sys
		resil[i] = byte(src.Intn(2))
	}
	return systems, resil
}

func (r *ladderRun) scheduleSeconds() float64 { return r.schedS }

func (r *ladderRun) step(i int) bool {
	tr := r.tr
	root := tr.begin(i, spOp, -1)
	sys := r.systems[i]

	sp := tr.begin(i, spSolve, root)
	res, err := strategy.OptimizeResilientCapacity(sys, r.fr, int(r.resil[i]), strategy.Options{TargetGap: ladderGap})
	tr.end(sp)
	if err != nil {
		return false
	}

	sp = tr.begin(i, spCertify, root)
	err = res.Certify(certTol)
	tr.end(sp)

	sp = tr.begin(i, spCheck, root)
	ok := err == nil && res.Strategy.Validate(sys) == nil && res.Bound <= res.Value*(1+1e-9)
	tr.end(sp)

	r.tal.solves++
	if len(sys.Votes) >= ladderLargeFrom {
		r.tal.large++
	}
	r.tal.rounds += int64(res.Rounds)
	r.tal.columns += int64(res.Generated)
	r.dig.word(math.Float64bits(res.Value))
	r.dig.word(uint64(len(res.Strategy.ReadQuorums))<<32 | uint64(len(res.Strategy.WriteQuorums)))
	tr.end(root)
	return ok
}

func (r *ladderRun) endWarmup() error {
	r.base = r.tal
	return nil
}

func (r *ladderRun) tally() ([]count, uint64) {
	t, b := r.tal, r.base
	return []count{
		{"solves", t.solves - b.solves},
		{"large_solves", t.large - b.large},
		{"cg_rounds", t.rounds - b.rounds},
		{"cg_columns", t.columns - b.columns},
	}, uint64(r.dig)
}
