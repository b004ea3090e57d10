package sim

import (
	"fmt"
	"runtime"
	"sync"

	"quorumkit/internal/core"
	"quorumkit/internal/graph"
	"quorumkit/internal/rng"
	"quorumkit/internal/topo"
)

// GridSpec describes a paper-style multi-configuration study: the full
// chords × α grid over rings of a given size, each cell measured by a
// family sweep. It is the engine behind `quorumsim -study`.
type GridSpec struct {
	// Sites is the ring size; 0 means the paper's 101.
	Sites int
	// Chords lists the chord counts of the topology axis; nil means the
	// subset of the paper's counts {0, 1, 2, 4, 16, 256, 4949} that fit
	// the ring (4949 is specific to 101 sites; for other sizes the axis is
	// clamped to valid counts).
	Chords []int
	// Alphas lists the read-fraction axis; nil means the paper's levels
	// {0, 0.25, 0.5, 0.75, 1}.
	Alphas []float64
	// Workers caps the worker pool; ≤ 0 means GOMAXPROCS. The results are
	// bit-identical for every worker count.
	Workers int
}

// PaperAlphas are the five read-fraction levels of the paper's figures.
var PaperAlphas = []float64{0, 0.25, 0.5, 0.75, 1}

func (sp GridSpec) sites() int {
	if sp.Sites == 0 {
		return topo.Sites
	}
	return sp.Sites
}

func (sp GridSpec) chords() []int {
	if sp.Chords != nil {
		return sp.Chords
	}
	maxC := topo.MaxChords(sp.sites())
	out := make([]int, 0, len(topo.ChordCounts))
	for _, c := range topo.ChordCounts {
		if c <= maxC {
			out = append(out, c)
		}
	}
	return out
}

func (sp GridSpec) alphas() []float64 {
	if sp.Alphas != nil {
		return sp.Alphas
	}
	return PaperAlphas
}

func (sp GridSpec) validate() error {
	n := sp.sites()
	if n < 5 {
		return fmt.Errorf("sim: grid ring size %d (need ≥ 5)", n)
	}
	for _, c := range sp.chords() {
		if c < 0 || c > topo.MaxChords(n) {
			return fmt.Errorf("sim: %d chords out of [0,%d] for %d sites", c, topo.MaxChords(n), n)
		}
	}
	for _, a := range sp.alphas() {
		if a < 0 || a > 1 {
			return fmt.Errorf("sim: grid α=%g out of [0,1]", a)
		}
	}
	if len(sp.chords()) == 0 || len(sp.alphas()) == 0 {
		return fmt.Errorf("sim: empty grid axes %+v", sp)
	}
	return nil
}

// GridCell is one measured configuration of the study grid: the full
// family sweep of one (chords, α) pair, plus the derived optimum.
type GridCell struct {
	Chords int
	Alpha  float64
	// Seed is the RNG substream seed the cell's sweep used, derived
	// deterministically from the study seed and the cell's grid position.
	Seed uint64
	// Family holds the per-assignment measurements, indexed by q_r−1.
	Family []Measurement
	// BestQR is the read quorum with the highest measured mean
	// availability (smallest q_r on ties, as in the optimizer).
	BestQR int
}

// RunGrid measures every cell of the grid, fanning cells across a
// deterministic worker pool. Each cell runs an independent family Sweep
// whose StudyConfig seed is the rng.SubSeed substream of cfg.Seed at the
// cell's grid index, so the per-cell Measurement results are bit-identical
// regardless of worker count, scheduling order, or host — sharding is pure
// wall-clock, never semantics. Cells are returned in row-major
// chords-major order. cfg.Obs, when set, observes every cell's trajectory
// (cells run concurrently; the registry is atomic).
func RunGrid(spec GridSpec, p Params, cfg StudyConfig) ([]GridCell, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sites, chords, alphas := spec.sites(), spec.chords(), spec.alphas()

	cells := make([]GridCell, 0, len(chords)*len(alphas))
	for _, c := range chords {
		for _, a := range alphas {
			cells = append(cells, GridCell{
				Chords: c,
				Alpha:  a,
				Seed:   rng.SubSeed(cfg.Seed, uint64(len(cells))),
			})
		}
	}

	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	// Graphs are shared per chord count: immutable once built, and state
	// is per-simulator.
	graphs := make(map[int]*graph.Graph, len(chords))
	for _, c := range chords {
		if _, ok := graphs[c]; !ok {
			graphs[c] = topo.Build(sites, c)
		}
	}

	next := make(chan int, len(cells))
	for i := range cells {
		next <- i
	}
	close(next)
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cell := &cells[i]
				cellCfg := cfg
				cellCfg.Seed = cell.Seed
				family, err := Sweep(graphs[cell.Chords], nil, p, cell.Alpha, cellCfg)
				if err != nil {
					errs[i] = err
					continue
				}
				cell.Family = family
				cell.BestQR, _ = core.ArgMax(1, len(family), func(qr int) float64 { return family[qr-1].Overall.Mean })
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cells, nil
}
