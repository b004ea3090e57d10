package main

import (
	"fmt"
	"os"

	"quorumkit/internal/core"
	"quorumkit/internal/dist"
	"quorumkit/internal/experiments"
)

// densities are optimize's -net topologies: the closed-form component-size
// densities of §4.2.
var densities = []topology[func(n int, p, r float64) dist.PMF]{
	{"ring", 3, dist.Ring}, {"complete", 1, dist.Complete},
	{"bus-kills", 1, dist.BusKillsSites}, {"bus-indep", 1, dist.BusIndependentSites},
}

func bindOptimize(fs *flagSet) func(env) int {
	sites, net := netFlags(fs, densities, "complete", 101, "number of sites (one copy, one vote each)")
	p := fs.fraction("p", 0.96, "site reliability")
	r := fs.fraction("r", 0.96, "link (or bus) reliability")
	alpha := fs.fraction("alpha", 0.75, "fraction of accesses that are reads")
	minWrite := fs.fraction("minwrite", 0, "minimum write availability (0 = unconstrained)")
	curve := fs.Bool("curve", false, "print the full A(α, q_r) curve")
	sweep := fs.Bool("sweep", false, "emit CSV of A(α, q_r) over a grid of α (for plotting)")
	omega := fs.Bool("omega", false, "trace the §5.4 weighted-objective path over ω")
	return func(env) int {
		t := net()
		m, err := core.ModelFromSingleDensity(t.build(*sites, *p, *r))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if *sweep {
			printSweep(m)
			return 0
		}
		fmt.Printf("network: %s, n=%d, p=%g, r=%g, α=%g\n", t.name, *sites, *p, *r, *alpha)
		return runOptimize(m, *alpha, *minWrite, *curve, *omega)
	}
}

// printSweep writes A(α, q_r) as CSV: one row per q_r, one column per α —
// ready for any plotter.
func printSweep(m core.Model) {
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
}

// runOptimize prints the optimal assignment of the analytic model m and the
// paper's reference points, with the curve and the §5.4 ω path on request.
func runOptimize(m core.Model, alpha, minWrite float64, curve, omega bool) int {
	if curve {
		fmt.Printf("%-6s %-10s %-10s %-10s\n", "q_r", "A(α,q_r)", "read A", "write A")
		for qr := 1; qr <= m.MaxReadQuorum(); qr++ {
			fmt.Printf("%-6d %-10.4f %-10.4f %-10.4f\n",
				qr, m.Availability(alpha, qr), m.ReadAvail(qr), m.WriteAvailForReadQuorum(qr))
		}
	}

	if minWrite > 0 {
		res, err := m.OptimizeConstrained(alpha, minWrite)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("optimal with A_w ≥ %.2f: %v  A = %.4f (write A = %.4f)\n",
			minWrite, res.Assignment, res.Availability,
			m.Availability(0, res.Assignment.QR))
	} else {
		res := m.Optimize(alpha)
		fmt.Printf("optimal: %v  A = %.4f (read A = %.4f, write A = %.4f)\n",
			res.Assignment, res.Availability,
			m.ReadAvail(res.Assignment.QR), m.WriteAvailForReadQuorum(res.Assignment.QR))
	}

	if omega {
		fmt.Printf("\n§5.4 weighted objective: optimum as the write weight ω grows\n")
		fmt.Printf("%-8s %-18s %-10s %-10s\n", "ω", "assignment", "read A", "write A")
		for _, row := range experiments.OmegaSweep(m, alpha,
			[]float64{0, 0.25, 0.5, 1, 2, 4, 8, 16, 64}) {
			fmt.Printf("%-8g %-18v %-10.4f %-10.4f\n",
				row.Omega, row.Assignment, row.ReadAvail, row.WriteAvail)
		}
	}

	// Reference points the paper discusses.
	maj := m.MaxReadQuorum()
	fmt.Printf("majority  (q_r=%d): A = %.4f\n", maj, m.Availability(alpha, maj))
	fmt.Printf("read-one  (q_r=1):  A = %.4f\n", m.Availability(alpha, 1))
	return 0
}
