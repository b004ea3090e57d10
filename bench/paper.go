package main

import (
	"fmt"
	"math"
	"time"

	"quorumkit/internal/graph"
	"quorumkit/internal/rng"
	"quorumkit/internal/sim"
	"quorumkit/internal/topo"
)

// paper-study: one operation is one cell of the paper's §5 study at 101
// sites — simulate and estimate the densities, run the Figure-1 optimizer,
// then measure the chosen assignment directly. It touches no cluster, store
// or strategy code, so serving work must not move it.

var (
	paperChords = []int{0, 1, 2, 4, 16, 256}
	paperAlphas = []float64{0.1, 0.25, 0.5, 0.75, 0.9}
)

const (
	collectAccesses = 3000 // time-weighted estimation horizon of one cell
	measureBatches  = 5
	measureAccesses = 600 // per batch
)

type paperRun struct {
	seed   uint64
	graphs []*graph.Graph
	cells  []byte // index into the chords × alphas grid
	params sim.Params
	tr     *tracer

	dig    digest
	cellsN int64
	base   int64
	schedS float64
}

func newPaperRun(seed uint64, warm, ops int, tr *tracer) (runner, error) {
	r := &paperRun{seed: seed, params: sim.PaperParams(), tr: tr, dig: fnvOffset}
	for _, c := range paperChords {
		r.graphs = append(r.graphs, topo.Paper(c))
	}
	t0 := time.Now()
	r.cells = gridSchedule(seed, warm+ops, len(paperChords)*len(paperAlphas))
	r.schedS = time.Since(t0).Seconds()
	return r, nil
}

// gridSchedule visits the grid in a seeded order, every point equally
// often, so each topology keeps a sixth of the cells in any window and the
// percentiles stay inside a class of cells of like cost.
func gridSchedule(seed uint64, total, points int) []byte {
	perm := rng.New(seed ^ 0x9a9e).Perm(points)
	cells := make([]byte, total)
	for i := range cells {
		cells[i] = byte(perm[i%points])
	}
	return cells
}

func (r *paperRun) scheduleSeconds() float64 { return r.schedS }

func (r *paperRun) step(i int) bool {
	tr := r.tr
	root := tr.begin(i, spOp, -1)
	cell := int(r.cells[i])
	g := r.graphs[cell/len(paperAlphas)]
	alpha := paperAlphas[cell%len(paperAlphas)]
	cellSeed := rng.SubSeed(r.seed, uint64(i))

	sp := tr.begin(i, spCollect, root)
	m, _, err := sim.Collect(g, nil, r.params, sim.CollectConfig{
		Mode: sim.TimeWeighted, Accesses: collectAccesses, Warmup: collectAccesses / 10, Seed: cellSeed})
	tr.end(sp)
	if err != nil {
		return false
	}

	sp = tr.begin(i, spOptimize, root)
	res := m.Optimize(alpha)
	tr.end(sp)

	sp = tr.begin(i, spMeasure, root)
	meas, err := sim.MeasureAvailability(g, nil, r.params, res.Assignment, alpha, sim.StudyConfig{
		Warmup: measureAccesses / 10, BatchAccesses: measureAccesses,
		MinBatches: measureBatches, MaxBatches: measureBatches, Seed: cellSeed ^ 1})
	tr.end(sp)
	if err != nil {
		return false
	}

	// The chosen q_r must be the brute-force argmax of the model's own
	// availability over [1, ⌊T/2⌋] (first maximum, as Figure 1 breaks ties),
	// and the measurement must be a probability over exactly five batches.
	sp = tr.begin(i, spCheck, root)
	best, bestA := 1, math.Inf(-1)
	for q := 1; q <= m.T/2; q++ {
		if a := m.Availability(alpha, q); a > bestA {
			best, bestA = q, a
		}
	}
	avail := meas.Overall.Mean
	ok := res.Assignment.QR == best && res.Assignment.QW == m.T-best+1 &&
		meas.Batches == measureBatches && avail >= 0 && avail <= 1
	tr.end(sp)

	r.cellsN++
	r.dig.word(uint64(res.Assignment.QR))
	r.dig.word(math.Float64bits(avail))
	tr.end(root)
	return ok
}

func (r *paperRun) endWarmup() error {
	if r.cellsN == 0 {
		return fmt.Errorf("no warm-up cells ran")
	}
	r.base = r.cellsN
	return nil
}

func (r *paperRun) tally() ([]count, uint64) {
	return []count{{"cells", r.cellsN - r.base}}, uint64(r.dig)
}
