// Command quorumopt computes optimal quorum assignments analytically from
// the closed-form component-size densities of §4.2 (ring, fully-connected,
// single-bus), for any network size, reliability, read fraction, and
// optional minimum write throughput.
//
// Usage:
//
//	quorumopt -net ring -n 101 -p 0.96 -r 0.96 -alpha 0.75
//	quorumopt -net complete -n 101 -alpha 0.75 -minwrite 0.2
//	quorumopt -net bus-kills -n 51 -curve
package main

import (
	"flag"
	"fmt"
	"os"

	"quorumkit/internal/core"
	"quorumkit/internal/dist"
	"quorumkit/internal/experiments"
)

func main() {
	var (
		net      = flag.String("net", "complete", "topology: ring | complete | bus-kills | bus-indep")
		n        = flag.Int("n", 101, "number of sites (one copy, one vote each)")
		p        = flag.Float64("p", 0.96, "site reliability")
		r        = flag.Float64("r", 0.96, "link (or bus) reliability")
		alpha    = flag.Float64("alpha", 0.75, "fraction of accesses that are reads")
		minWrite = flag.Float64("minwrite", 0, "minimum write availability (0 = unconstrained)")
		curve    = flag.Bool("curve", false, "print the full A(α, q_r) curve")
		sweep    = flag.Bool("sweep", false, "emit CSV of A(α, q_r) over a grid of α (for plotting)")
		omega    = flag.Bool("omega", false, "trace the §5.4 weighted-objective path over ω")

		strat     = flag.Bool("strategy", false, "solve for an optimal randomized quorum strategy (capacity/latency LP, certified) instead of a single assignment")
		objective = flag.String("objective", "capacity", "strategy: capacity | resilient | latency")
		stratN    = flag.Int("stratn", 0, "strategy: sites in a seeded heterogeneous system (0 = the built-in case study)")
		resilF    = flag.Int("f", 1, "strategy: tolerated site failures for -objective resilient")
		loadLimit = flag.Float64("loadlimit", 0, "strategy: per-site load ceiling for -objective latency (0 = case-study limit)")
		frs       = flag.String("frs", "", "strategy: read-fraction distribution as fr:weight pairs, e.g. 0.7:100,0.5:50 (empty = case-study distribution)")
		gap       = flag.Float64("gap", 0, "strategy: stop column generation at this certified bound gap (0 = solve to priced optimality)")
		seed      = flag.Uint64("seed", 7, "strategy: seed for the -stratn heterogeneous system")
		asJSON    = flag.Bool("json", false, "strategy: print the canonical strategy as JSON")
	)
	flag.Parse()

	density, err := checkFlags(*net, *n, *p, *r, *alpha, *minWrite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quorumopt:", err)
		flag.Usage()
		os.Exit(2)
	}

	if *strat {
		os.Exit(runStrategy(*objective, *stratN, *resilF, *loadLimit, *frs, *gap, *seed, *asJSON))
	}

	m, err := core.ModelFromSingleDensity(density(*n, *p, *r))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *sweep {
		// CSV: one row per q_r, one column per α — ready for any plotter.
		alphas := []float64{0, 0.25, 0.5, 0.75, 1}
		fmt.Print("q_r")
		for _, a := range alphas {
			fmt.Printf(",alpha=%.2f", a)
		}
		fmt.Println()
		for qr := 1; qr <= m.MaxReadQuorum(); qr++ {
			fmt.Print(qr)
			for _, a := range alphas {
				fmt.Printf(",%.6f", m.Availability(a, qr))
			}
			fmt.Println()
		}
		return
	}

	fmt.Printf("network: %s, n=%d, p=%g, r=%g, α=%g\n", *net, *n, *p, *r, *alpha)
	if *curve {
		fmt.Printf("%-6s %-10s %-10s %-10s\n", "q_r", "A(α,q_r)", "read A", "write A")
		for qr := 1; qr <= m.MaxReadQuorum(); qr++ {
			fmt.Printf("%-6d %-10.4f %-10.4f %-10.4f\n",
				qr, m.Availability(*alpha, qr), m.ReadAvail(qr), m.WriteAvailForReadQuorum(qr))
		}
	}

	if *minWrite > 0 {
		res, err := m.OptimizeConstrained(*alpha, *minWrite)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("optimal with A_w ≥ %.2f: %v  A = %.4f (write A = %.4f)\n",
			*minWrite, res.Assignment, res.Availability,
			m.Availability(0, res.Assignment.QR))
	} else {
		res := m.Optimize(*alpha)
		fmt.Printf("optimal: %v  A = %.4f (read A = %.4f, write A = %.4f)\n",
			res.Assignment, res.Availability,
			m.ReadAvail(res.Assignment.QR), m.WriteAvailForReadQuorum(res.Assignment.QR))
	}

	if *omega {
		fmt.Printf("\n§5.4 weighted objective: optimum as the write weight ω grows\n")
		fmt.Printf("%-8s %-18s %-10s %-10s\n", "ω", "assignment", "read A", "write A")
		for _, row := range experiments.OmegaSweep(m, *alpha,
			[]float64{0, 0.25, 0.5, 1, 2, 4, 8, 16, 64}) {
			fmt.Printf("%-8g %-18v %-10.4f %-10.4f\n",
				row.Omega, row.Assignment, row.ReadAvail, row.WriteAvail)
		}
	}

	// Reference points the paper discusses.
	maj := m.MaxReadQuorum()
	fmt.Printf("majority  (q_r=%d): A = %.4f\n", maj, m.Availability(*alpha, maj))
	fmt.Printf("read-one  (q_r=1):  A = %.4f\n", m.Availability(*alpha, 1))
}

// checkFlags returns the -net topology's closed-form density, or the first
// flag value no constructor accepts — an unknown topology, too few sites for
// it, or a probability or fraction outside [0, 1] — so main can refuse it
// with one line and the usage instead of running into a panic.
func checkFlags(net string, n int, p, r, alpha, minWrite float64) (func(n int, p, r float64) dist.PMF, error) {
	topo, known := map[string]struct {
		least   int
		density func(n int, p, r float64) dist.PMF
	}{
		"ring": {3, dist.Ring}, "complete": {1, dist.Complete},
		"bus-kills": {1, dist.BusKillsSites}, "bus-indep": {1, dist.BusIndependentSites},
	}[net]
	if !known {
		return nil, fmt.Errorf("unknown -net %q", net)
	}
	if n < topo.least {
		return nil, fmt.Errorf("-n %d: -net %s needs at least %d sites", n, net, topo.least)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"p", p}, {"r", r}, {"alpha", alpha}, {"minwrite", minWrite}} {
		if !(f.v >= 0 && f.v <= 1) { // also refuses NaN
			return nil, fmt.Errorf("-%s %g out of [0, 1]", f.name, f.v)
		}
	}
	return topo.density, nil
}
