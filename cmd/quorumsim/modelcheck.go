package main

import (
	"fmt"
	"os"
	"time"

	"quorumkit/internal/check"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

func bindCheck(fs *flagSet) func(env) int {
	sites, net := netFlags(fs, graphs, "path", 4, "number of sites (keep ≤ 5)")
	versionCap := fs.Int64("versioncap", 3, "max reassignment version explored")
	fs.check(func() bool { return *versionCap >= 0 }, "-versioncap must be at least 0")
	maxStates := fs.intMin("maxstates", 2_000_000, 1, "state budget")
	return func(env) int {
		t := net()
		return runCheck(t.name, t.build(*sites), *versionCap, *maxStates)
	}
}

// runCheck exhaustively explores the quorum consensus + QR reassignment
// protocol's reachable state space on g and verifies the safety invariants
// (single writer; reads see the latest write) in every state. A violation
// prints its counterexample trace; a spent state budget is inconclusive.
// Either exits 1.
func runCheck(net string, g *graph.Graph, versionCap int64, maxStates int) int {
	cfg := check.DefaultConfig(g.N())
	cfg.VersionCap = versionCap
	cfg.MaxStates = maxStates

	fmt.Printf("exploring %s with %d sites, %d links; assignments %v, version cap %d\n",
		net, g.N(), g.M(), cfg.Assignments, cfg.VersionCap)
	start := time.Now()
	states, err := check.ExploreQR(g, quorum.Majority(g.N()), cfg)
	elapsed := time.Since(start)
	switch {
	case states > maxStates:
		fmt.Fprintf(os.Stderr, "inconclusive: not verified; the state budget (-maxstates %d) ran out after %v with no violation found\n", maxStates, elapsed)
		return 1
	case err != nil:
		fmt.Fprintf(os.Stderr, "VIOLATION after %d states (%v): %v\n", states, elapsed, err)
		return 1
	}
	fmt.Printf("verified %d reachable states in %v: both invariants hold\n", states, elapsed)
	return 0
}
