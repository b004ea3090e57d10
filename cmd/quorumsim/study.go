package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"quorumkit/internal/sim"
)

// runStudy drives the sharded multi-configuration study engine: the full
// chords × α grid, each cell a single-trajectory family sweep, fanned over
// a deterministic worker pool. Results are bit-identical for every worker
// count — -parallel trades wall-clock only.
func runStudy(sites, workers int, chordsCSV, alphasCSV string, cfg sim.StudyConfig) int {
	spec := sim.GridSpec{Sites: sites, Workers: workers}
	var err error
	if spec.Chords, err = parseCSV(chordsCSV, strconv.Atoi); err != nil {
		fmt.Fprintf(os.Stderr, "-chords: %v\n", err)
		return 2
	}
	if spec.Alphas, err = parseCSV(alphasCSV, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }); err != nil {
		fmt.Fprintf(os.Stderr, "-alphas: %v\n", err)
		return 2
	}

	cells, err := sim.RunGrid(spec, sim.PaperParams(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	fmt.Printf("study: %d sites, %d cells, seed %d\n", sites, len(cells), cfg.Seed)
	fmt.Printf("%-8s %-6s %-6s %-28s %s\n", "chords", "α", "q_r*", "best availability (95% CI)", "batches")
	for _, cell := range cells {
		best := cell.Family[cell.BestQR-1]
		fmt.Printf("%-8d %-6g %-6d %-28v %d\n",
			cell.Chords, cell.Alpha, cell.BestQR, best.Overall, best.Batches)
	}
	return 0
}

// parseCSV parses a comma-separated list; empty means defaults.
func parseCSV[T any](csv string, parse func(string) (T, error)) ([]T, error) {
	if csv == "" {
		return nil, nil
	}
	parts := strings.Split(csv, ",")
	out := make([]T, len(parts))
	for i, p := range parts {
		var err error
		if out[i], err = parse(strings.TrimSpace(p)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
