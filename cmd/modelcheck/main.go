// Command modelcheck exhaustively explores the quorum consensus + QR
// reassignment protocol's reachable state space on a small network and
// verifies the safety invariants (single writer; reads see the latest
// write) in every state. On violation it prints a counterexample trace.
//
// Usage:
//
//	modelcheck -net path -n 4
//	modelcheck -net ring -n 4 -versioncap 2
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"quorumkit/internal/check"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

func main() {
	var (
		net        = flag.String("net", "path", "topology: path | ring | star | complete")
		n          = flag.Int("n", 4, "number of sites (keep ≤ 5)")
		versionCap = flag.Int64("versioncap", 3, "max reassignment version explored")
		maxStates  = flag.Int("maxstates", 2_000_000, "state budget")
	)
	flag.Parse()

	// A topology nobody builds, or a site count its constructor would panic
	// on, is a usage error: one line, the usage, exit 2, nothing run.
	topo, known := map[string]struct {
		least int
		build func(n int) *graph.Graph
	}{"path": {2, graph.Path}, "ring": {3, graph.Ring}, "star": {2, graph.Star}, "complete": {2, graph.Complete}}[*net]
	var usageErr string
	if !known {
		usageErr = fmt.Sprintf("unknown -net %q", *net)
	} else if *n < topo.least {
		usageErr = fmt.Sprintf("-n %d: -net %s needs at least %d sites", *n, *net, topo.least)
	}
	if usageErr != "" {
		fmt.Fprintln(os.Stderr, "modelcheck:", usageErr)
		flag.Usage()
		os.Exit(2)
	}
	g := topo.build(*n)

	cfg := check.DefaultConfig(*n)
	cfg.VersionCap = *versionCap
	cfg.MaxStates = *maxStates

	fmt.Printf("exploring %s with %d sites, %d links; assignments %v, version cap %d\n",
		*net, g.N(), g.M(), cfg.Assignments, cfg.VersionCap)
	start := time.Now()
	states, err := check.ExploreQR(g, quorum.Majority(*n), cfg)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "VIOLATION after %d states (%v): %v\n", states, elapsed, err)
		os.Exit(1)
	}
	fmt.Printf("verified %d reachable states in %v: both invariants hold\n", states, elapsed)
}
