// Command quorumsim drives the simulators and the message-level protocol
// runtimes. It is a table of subcommands, each with its own flags:
//
//   - measure: the availability of one quorum assignment by direct
//     discrete-event simulation with the paper's batching methodology
//     (§5.2): warm-up, fixed-size batches from a fresh initial state, 95%
//     confidence intervals.
//   - study: the large-N study engine — the full chords × α grid, each cell
//     measured by a single-trajectory family sweep (one simulation per
//     batch serving every assignment via suffix sums), fanned across a
//     deterministic worker pool. -parallel trades wall-clock only: cell
//     results are bit-identical for every worker count.
//   - chaos: the protocol runtimes under seeded fault injection (drops,
//     duplication, reordering, delay, coordinator crashes), reporting the
//     fault counters and the history checker's one-copy-serializability
//     verdict. With -disk, disk faults are layered under the crash-bearing
//     message mix: crashed coordinators recover by replaying a damaged
//     durable log — torn tails truncated and repaired, corrupt or wiped
//     media forcing an amnesiac rejoin by state transfer.
//   - churn: the self-healing soak — a ring under seeded site/link churn
//     serving a read-heavy workload with the adaptive reassignment daemon
//     on versus off on the identical schedule, asserting one-copy
//     serializability, post-churn assignment-version convergence, and an
//     availability win for the daemon.
//   - suite <name>: one of the gate suites, its figures emitted as rows in
//     the one BENCH_*.json schema (internal/gate, DESIGN §19): -out writes
//     them, -baseline gates them against a committed file, and a suite's
//     own bounds are checked either way. Every row is a pure function of
//     the code and -seed; wall-clock is printed, never written. paper is
//     the source paper's §5 — Figures 2–7, the §5.3–§5.5 checks and the
//     studies extending them — with the paper's claims as bounds; strategy
//     is the optimizer's case study, simulator agreement and large-N solve;
//     weights the certified vote annealer at representative scales;
//     adversary, strategy-adversity and gray replay the adversarial and
//     gray-failure scenarios once per mode on the identical seeded
//     stimulus, scored against the epoch oracle — daemon off vs on, a
//     certified strategy frozen vs re-solved by the daemon, and daemon off
//     vs miss-count vs φ-accrual detection. Every run must keep one-copy
//     serializability and grant zero writes from minority partitions.
//   - weightcheck: anneal weighted votes on a star and crosscheck the
//     scenario engine's prediction against the discrete-event simulator.
//   - hedge: the slow-replica scenario unhedged vs hedged.
//   - optimize: the paper's optimizer on the closed-form component-size
//     densities of §4.2 (ring, fully-connected, single-bus) for any network
//     size, reliability, read fraction and optional minimum write
//     availability; -curve, -sweep (CSV) and -omega (§5.4) print more.
//   - strategy: a certified optimal randomized quorum strategy — capacity,
//     f-resilient capacity, or expected latency under a load limit — over
//     the built-in case study or a seeded heterogeneous system of -sites.
//     A solve that cannot certify prints one JSON object on stderr
//     (`.infeasible` tells an impossible request from a numerical failure).
//   - votes: vote assignments optimized jointly with quorum assignments
//     (the paper's reference [7]) by hill climbing, exhaustive search or
//     annealing, for availability or LP capacity; every result carries an
//     intersection certificate.
//   - check: explicit-state exploration of the quorum consensus + QR
//     reassignment protocol on a small network, verifying single writer
//     and read-latest in every reachable state. A violation prints its
//     counterexample trace; a spent -maxstates budget is inconclusive.
//
// Every subcommand takes -seed and the observability flags: -metrics writes
// a Prometheus text snapshot of the run's counters, gauges, and histograms;
// -trace writes the structured protocol event trace as JSONL; -pprof writes
// stdlib CPU and heap profiles. All three are off by default and cost
// nothing when off.
//
// Usage:
//
//	quorumsim measure -topology 2 -qr 28 -alpha 0.75
//	quorumsim measure -topology 0 -qr 50 -alpha 0.5 -paper
//	quorumsim study -sites 1001 -chords 0,4 -alphas 0.75 -parallel 4
//	quorumsim chaos -mix all -ops 5000 -seed 7
//	quorumsim chaos -disk disk-all -ops 2000 -seed 7 -async
//	quorumsim churn -seeds 3 -ops 4000
//	quorumsim suite paper -baseline BENCH_paper.json
//	quorumsim suite strategy -baseline BENCH_strategy.json
//	quorumsim suite adversary -out /tmp/adversary.json -baseline BENCH_adversary.json
//	quorumsim weightcheck -sites 9 -alpha 0.75 -seed 1
//	quorumsim hedge -seed 1
//	quorumsim churn -metrics metrics.prom -trace trace.jsonl -pprof churn
//	quorumsim optimize -net ring -sites 101 -p 0.96 -r 0.96 -alpha 0.75
//	quorumsim optimize -net complete -sites 101 -alpha 0.75 -minwrite 0.2
//	quorumsim optimize -net bus-kills -sites 51 -curve
//	quorumsim strategy -objective latency
//	quorumsim strategy -sites 151 -gap 0.05
//	quorumsim votes -net star -sites 6 -p 0.9 -r 0.7 -alpha 0.5 -max 3
//	quorumsim votes -net path -sites 5 -search exhaustive
//	quorumsim votes -net star -sites 100 -search anneal -scenarios 1000 -steps 800
//	quorumsim votes -objective capacity -sites 12 -search anneal
//	quorumsim check -net path -sites 4
//	quorumsim check -net ring -sites 4 -versioncap 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"quorumkit/internal/faults"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
	"quorumkit/internal/sim"
	"quorumkit/internal/topo"
)

// env is what a parsed invocation hands its command: the shared -seed, the
// observability sink, and the positional operand of commands that take one.
type env struct {
	seed    uint64
	sink    *obsSink
	operand string
}

// command is one row of the command table. bind registers the command's
// own flags on fs and returns the run over their parsed values.
type command struct {
	name    string
	operand string // name of the one positional argument, "" for none
	summary string
	bind    func(fs *flagSet) func(env) int
}

// flagSet is a flag.FlagSet whose flags may declare the range their value
// must lie in. parse checks the ranges after parsing, so a number no
// constructor below accepts is a usage error and nothing runs.
type flagSet struct {
	*flag.FlagSet
	checks []func() error
}

// check adds a condition on the parsed values.
func (fs *flagSet) check(ok func() bool, format string, args ...any) {
	fs.checks = append(fs.checks, func() error {
		if ok() {
			return nil
		}
		return fmt.Errorf(format, args...)
	})
}

// intMin is fs.Int for a flag whose value must be at least min.
func (fs *flagSet) intMin(name string, value, min int, usage string) *int {
	p := fs.Int(name, value, usage)
	fs.check(func() bool { return *p >= min }, "-%s must be at least %d", name, min)
	return p
}

// fraction is fs.Float64 for a flag whose value must lie in [0, 1].
func (fs *flagSet) fraction(name string, value float64, usage string) *float64 {
	p := fs.Float64(name, value, usage)
	fs.check(func() bool { return *p >= 0 && *p <= 1 }, "-%s must be in [0, 1]", name)
	return p
}

// oneOf is fs.String for a flag whose value must be one of choices.
func (fs *flagSet) oneOf(name, value, usage string, choices ...string) *string {
	list := strings.Join(choices, " | ")
	p := fs.String(name, value, usage+": "+list)
	fs.check(func() bool { return slices.Contains(choices, *p) }, "-%s must be one of %s", name, list)
	return p
}

// topology is a -net choice: its constructor and the fewest sites that
// constructor accepts.
type topology[B any] struct {
	name  string
	least int
	build B
}

// netFlags registers -net, which must name one of nets, and -sites, which
// must be at least that topology's least site count. It returns -sites and
// the chosen topology, both valid once the flags are parsed.
func netFlags[B any](fs *flagSet, nets []topology[B], net string, sites int, usage string) (*int, func() topology[B]) {
	names := make([]string, len(nets))
	for i, t := range nets {
		names[i] = t.name
	}
	name := fs.oneOf("net", net, "topology", names...)
	n := fs.Int("sites", sites, usage)
	for _, t := range nets {
		fs.check(func() bool { return *name != t.name || *n >= t.least }, "-sites must be at least %d for -net %s", t.least, t.name)
	}
	return n, func() topology[B] { return nets[slices.Index(names, *name)] }
}

var commands = []command{
	{"measure", "", "availability of one assignment by batched simulation (paper §5.2)", bindMeasure},
	{"study", "", "the sharded chords × α study grid (large-N engine)", bindStudy},
	{"chaos", "", "fault injection against the protocol runtimes, 1SR-checked; -disk adds disk faults", bindChaos},
	{"churn", "", "churn soak: self-healing daemon on vs off under site/link churn", bindChurn},
	{"suite", "name", "run a gate suite and check its bounds: " + suiteNames(), bindSuite},
	{"weightcheck", "", "annealed weighted votes: scenario prediction vs the discrete-event simulator", bindWeightCheck},
	{"hedge", "", "hedged-read demo: slow-replica scenario unhedged vs hedged", bindHedge},
	{"optimize", "", "optimal assignment from the §4.2 closed-form densities (ring, complete, bus)", bindOptimize},
	{"strategy", "", "certified optimal randomized quorum strategy (capacity, resilient or latency LP)", bindStrategy},
	{"votes", "", "vote assignments optimized jointly with quorums (ref. [7]), every result certified", bindVotes},
	{"check", "", "model-check the QR reassignment protocol's safety on a small network", bindCheck},
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run executes one invocation and returns its exit status.
func run(args []string, stderr io.Writer) int {
	exec, status := parse(args, stderr)
	if exec == nil {
		return status
	}
	return exec()
}

// parse resolves args to a command and parses its flags. It returns the
// bound invocation, or nil and the exit status when there is nothing to
// run: 0 after printing help, 2 on a usage error.
func parse(args []string, stderr io.Writer) (func() int, int) {
	name := ""
	if len(args) > 0 {
		name, args = args[0], args[1:]
	}
	i := slices.IndexFunc(commands, func(c command) bool { return c.name == name })
	if i < 0 {
		status := 0
		if name != "help" && name != "-h" && name != "-help" && name != "--help" {
			fmt.Fprintf(stderr, "quorumsim: unknown command %q\n", name)
			status = 2
		}
		fmt.Fprintln(stderr, "usage: quorumsim <command> [flags]   (<command> -h lists its flags)")
		for _, cmd := range commands {
			fmt.Fprintf(stderr, "  %-12s %s\n", cmd.name, cmd.summary)
		}
		return nil, status
	}
	cmd := commands[i]
	synopsis, operand := cmd.name, ""
	if cmd.operand != "" {
		synopsis += " <" + cmd.operand + ">"
		if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
			operand, args = args[0], args[1:]
		}
	}

	fs := &flagSet{FlagSet: flag.NewFlagSet("quorumsim "+cmd.name, flag.ContinueOnError)}
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: quorumsim %s [flags]\n  %s\n", synopsis, cmd.summary)
		fs.PrintDefaults()
	}
	bound := cmd.bind(fs)
	newEnv := sharedFlags(fs.FlagSet)
	err := fs.Parse(args)
	for i := 0; err == nil && i < len(fs.checks); i++ {
		if err = fs.checks[i](); err != nil {
			fmt.Fprintln(stderr, err)
			fs.Usage()
		}
	}
	switch {
	case err == flag.ErrHelp:
		return nil, 0
	case err != nil:
		return nil, 2 // the error and the usage are printed
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "unexpected argument %q\n", fs.Arg(0))
	case cmd.operand != "" && operand == "":
		fmt.Fprintf(stderr, "missing <%s>\n", cmd.operand)
	default:
		return func() int {
			e, err := newEnv()
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			e.operand = operand
			status := bound(e)
			if err := e.sink.finish(stderr); err != nil {
				fmt.Fprintln(stderr, err)
				if status == 0 {
					status = 2
				}
			}
			return status
		}, 0
	}
	fs.Usage()
	return nil, 2
}

// sharedFlags registers the flags every command takes — -seed and the
// observability destinations — and returns the env over their parsed
// values. Building the env starts the CPU profile when one was asked for.
func sharedFlags(fs *flag.FlagSet) func() (env, error) {
	seed := fs.Uint64("seed", 1, "base seed")
	metrics := fs.String("metrics", "", "write a Prometheus text metrics snapshot to this file after the run ('-' for stdout)")
	trace := fs.String("trace", "", "write the structured protocol event trace as JSONL to this file after the run ('-' for stdout)")
	pprof := fs.String("pprof", "", "write CPU and heap profiles to <prefix>.cpu.pprof and <prefix>.heap.pprof")
	return func() (env, error) {
		sink, err := newObsSink(*metrics, *trace, *pprof, obs.DefaultTraceCap)
		return env{seed: *seed, sink: sink}, err
	}
}

// batchFlags registers the five batching flags measure and study share and
// returns the study configuration over their parsed values.
func batchFlags(fs *flag.FlagSet) func(env) sim.StudyConfig {
	warmup := fs.Int64("warmup", 10_000, "warm-up accesses per batch")
	batch := fs.Int64("batch", 100_000, "accesses per batch")
	minB := fs.Int("minbatches", 5, "minimum batches")
	maxB := fs.Int("maxbatches", 18, "maximum batches")
	ci := fs.Float64("ci", 0.005, "target 95% CI half-width")
	return func(e env) sim.StudyConfig {
		return sim.StudyConfig{
			Warmup: *warmup, BatchAccesses: *batch,
			MinBatches: *minB, MaxBatches: *maxB, CIHalfWidth: *ci,
			Seed: e.seed, Obs: e.sink.registry(),
		}
	}
}

func bindMeasure(fs *flagSet) func(env) int {
	topology := fs.Int("topology", 0, "chord count (0,1,2,4,16,256,4949)")
	fs.check(func() bool { return slices.Contains(topo.ChordCounts, *topology) },
		"-topology must be one of the paper's chord counts %v", topo.ChordCounts)
	qr := fs.Int("qr", 50, "read quorum; write quorum is T−q_r+1")
	alpha := fs.fraction("alpha", 0.75, "fraction of accesses that are reads")
	paper := fs.Bool("paper", false, "use the paper's full batch sizes (overrides the batching flags)")
	batching := batchFlags(fs.FlagSet)
	return func(e env) int {
		cfg := batching(e)
		if *paper {
			cfg = sim.PaperStudy()
			cfg.Seed, cfg.Obs = e.seed, e.sink.registry()
		}
		return runMeasure(*topology, *qr, *alpha, cfg)
	}
}

func bindStudy(fs *flagSet) func(env) int {
	sites := fs.Int("sites", 101, "ring size")
	chords := fs.String("chords", "", "comma-separated chord counts (empty = the paper's axis)")
	alphas := fs.String("alphas", "", "comma-separated read fractions (empty = the paper's levels)")
	parallel := fs.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS); results are identical for every value")
	batching := batchFlags(fs.FlagSet)
	return func(e env) int { return runStudy(*sites, *parallel, *chords, *alphas, batching(e)) }
}

func bindChaos(fs *flagSet) func(env) int {
	mix := fs.String("mix", "", "message fault mix, or 'all' (one of: "+strings.Join(faults.Names(), " ")+"; default all, or crash under -disk)")
	disk := fs.String("disk", "", "layer this disk fault mix, or 'all', under the one message mix (one of: "+strings.Join(faults.DiskNames(), " ")+")")
	ops := fs.intMin("ops", 2000, 1, "scheduled operations per run")
	sites := fs.intMin("sites", 7, 2, "sites in the cluster (complete graph)")
	async := fs.Bool("async", false, "use the concurrent runtime")
	return func(e env) int { return runChaos(*mix, *disk, *ops, *sites, e.seed, *async, e.sink) }
}

func bindChurn(fs *flagSet) func(env) int {
	seeds := fs.intMin("seeds", 3, 1, "seeds per configuration")
	ops := fs.intMin("ops", 4000, 1, "churn-phase operations per run")
	sites := fs.intMin("sites", 9, 3, "ring size")
	alpha := fs.fraction("alpha", 0.9, "fraction of accesses that are reads")
	return func(e env) int { return runChurn(*seeds, *ops, *sites, *alpha, e.seed, e.sink) }
}

func bindSuite(fs *flagSet) func(env) int {
	out := fs.String("out", "", "write the suite's rows to this JSON file")
	baseline := fs.String("baseline", "", "gate the rows against this committed BENCH_*.json (same suite, seed and steps)")
	steps := fs.Int("steps", 0, "steps per scenario run of a regret suite, accesses per topology of paper (0 = the suite's default, which its baseline was run at)")
	fs.check(func() bool { return *steps == 0 || *steps >= minSteps }, "-steps must be 0 or at least %d", minSteps)
	return func(e env) int { return runSuite(e.operand, *out, *baseline, *steps, e.seed, e.sink) }
}

func bindWeightCheck(fs *flagSet) func(env) int {
	sites := fs.intMin("sites", 9, 2, "star size")
	alpha := fs.fraction("alpha", 0.75, "fraction of accesses that are reads")
	return func(e env) int { return runWeightCheck(*sites, *alpha, e.seed) }
}

func bindHedge(fs *flagSet) func(env) int {
	steps := fs.intMin("steps", graySteps, minSteps, "steps of the scenario run")
	return func(e env) int { return runHedgeDemo(*steps, e.seed, e.sink) }
}

// runMeasure runs the direct availability measurement of one assignment.
func runMeasure(topology, qr int, alpha float64, cfg sim.StudyConfig) int {
	g := topo.Paper(topology)
	a := quorum.Assignment{QR: qr, QW: g.N() - qr + 1}
	if err := a.Validate(g.N()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	fmt.Printf("%s, %v, α=%g, batches of %d accesses\n",
		topo.Name(topology), a, alpha, cfg.BatchAccesses)
	meas, err := sim.MeasureAvailability(g, nil, sim.PaperParams(), a, alpha, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("availability (ACC): %v over %d batches\n", meas.Overall, meas.Batches)
	if alpha > 0 {
		fmt.Printf("read availability:  %v\n", meas.Read)
	}
	if alpha < 1 {
		fmt.Printf("write availability: %v\n", meas.Write)
	}
	return 0
}
