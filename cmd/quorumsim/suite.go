package main

import (
	"fmt"
	"os"
	"strings"

	"quorumkit/internal/gate"
)

// suiteFunc runs a gate suite and returns its rows. ok is false when a
// verdict that relates rows to one another failed; single-row verdicts are
// bounds on the rows, left to gate.Check. steps is a regret suite's run
// length, 0 for its default.
type suiteFunc func(steps int, seed uint64, sink *obsSink) (file gate.File, ok bool, err error)

// suites is the one registry of gate suites: what `quorumsim suite <name>`
// accepts, `make gate` loops over and BENCH_<name>.json holds.
var suites = []struct {
	name string
	run  suiteFunc
}{
	{"strategy", seedOnly(benchStrategy)},
	{"adversary", regretRun("adversary")},
	{"strategy-adversity", regretRun("strategy-adversity")},
	{"gray", regretRun("gray")},
	{"weights", seedOnly(benchWeights)},
}

// seedOnly adapts a suite that takes no steps, has no cross-row verdicts
// and nothing to observe.
func seedOnly(bench func(seed uint64) (gate.File, error)) suiteFunc {
	return func(_ int, seed uint64, _ *obsSink) (gate.File, bool, error) {
		file, err := bench(seed)
		return file, err == nil, err
	}
}

// regretRun is the regret suite of that name (regret.go), built on use: the
// strategy-adversity table solves its boot strategy.
func regretRun(name string) suiteFunc {
	return func(steps int, seed uint64, sink *obsSink) (gate.File, bool, error) {
		s, err := regretSuiteNamed(name)
		if err != nil {
			return gate.File{}, false, err
		}
		return s.run(name, steps, seed, sink)
	}
}

// suiteNames lists what `suite` accepts.
func suiteNames() string {
	names := make([]string, len(suites))
	for i, s := range suites {
		names[i] = s.name
	}
	return strings.Join(names, " | ")
}

// suiteNamed resolves a suite; a misspelt name is an error listing the
// valid ones.
func suiteNamed(name string) (suiteFunc, error) {
	for _, s := range suites {
		if s.name == name {
			return s.run, nil
		}
	}
	return nil, fmt.Errorf("unknown suite %q (%s)", name, suiteNames())
}

// runSuite runs one gate suite and hands its rows to the one gate: written
// to out and checked against baseline when those are given. Exit status 1
// on any verdict or gate failure, 2 when the suite could not run.
func runSuite(name, out, baseline string, steps int, seed uint64, sink *obsSink) int {
	suite, err := suiteNamed(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	file, ok, err := suite(steps, seed, sink)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	status := gate.Finish(file, out, baseline)
	if status == 0 && !ok {
		status = 1
	}
	return status
}
