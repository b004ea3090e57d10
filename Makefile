# Verification tiers for quorumkit. `make check` is the gate a change must
# pass before it lands: vet, build, the full test suite, the race detector
# over the concurrent runtime and the simulator, and the coverage floors.
# `make gate` checks the committed BENCH_*.json baselines.

GO ?= go

COVER_PKGS = obs store sim workload faults strategy votes quorum coterie
COVER = $(addprefix cover-,$(COVER_PKGS))

# The gate suites, each checked against its committed BENCH_<suite>.json in
# the one schema (internal/gate, DESIGN §19). `make gate` runs them all,
# `make gate SUITE=gray` one; `make gate-update [SUITE=x]` regenerates the
# committed baselines. Every row is a pure function of the code and the
# seed, so a regenerated file only differs when the code's answers do.
SUITE = strategy adversary strategy-adversity gray weights paper

.PHONY: check vet build test race $(COVER) \
	fuzz chaos diskchaos soak hedge weights strategy study \
	bench-solver bench-serve bench-sim e2e e2e-smoke gate gate-update loc

check: vet build test race $(COVER)

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Coverage floors. Each of these packages is one whose bugs silently corrupt
# what everything above it asserts on, and whose own oracle tests only bind
# the paths they exercise: obs (every harness reads its counters), store
# (recovery correctness is what the chaos harnesses assume), sim (the
# measurement instrument; sweep-vs-reference and grid worker-invariance proofs),
# workload and faults (the stimulus side of every regret and robustness
# claim), strategy (certificates only bind the simplex, pricing and
# column-generation paths that run), votes (nothing is accepted without a
# pigeonhole certificate; brute-force and exhaustive oracles), quorum (the
# single home of the intersection rule, the minimal-quorum enumerator and
# System.Validate) and coterie (the families every Validate claim is tested
# on, against their explicit-set oracles).
$(COVER): cover-%:
	$(GO) test -coverprofile=/tmp/$*.cover ./internal/$*/ >/dev/null
	@$(GO) tool cover -func=/tmp/$*.cover | awk '/^total:/ { \
		pct = $$3 + 0; \
		printf "internal/$* coverage: %s (gate: 90%%)\n", $$3; \
		if (pct < 90) { print "FAIL: internal/$* coverage below 90%"; exit 1 } }'

# Short continuous fuzz, FUZZTIME per target (each committed corpus also
# replays as part of `make test`): the wire codec; the store record decoder
# against arbitrary log damage and its snapshot decoder against arbitrary
# bytes; the simplex solver — random LPs must always yield a verifiable
# certificate (optimality, Farkas, or unbounded ray); the
# strategy decoder — a corrupted serialized strategy must always be rejected
# with a typed DecodeError, never armed; random quorum expressions —
# Holds, MinimalQuorums and System.Validate against the all-subsets oracle;
# and site/link flap streams — graph.State's early-exit connectivity updates
# against Recompute after every operation.
FUZZTIME ?= 30s
FUZZ_TARGETS = cluster:FuzzUnmarshalPayload store:FuzzFoldLog \
	store:FuzzDecodeSnap strategy:FuzzSimplex strategy:FuzzStrategyDecode \
	quorum:FuzzExpr graph:FuzzStateFlaps

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		$(GO) test ./internal/$${t%%:*}/ -run "^$${t##*:}$$" -fuzz "^$${t##*:}$$" -fuzztime $(FUZZTIME); \
	done

# Seeded fault-injection sweep over every mix on both runtimes.
chaos:
	$(GO) run ./cmd/quorumsim chaos -mix all -ops 5000 -seed 1
	$(GO) run ./cmd/quorumsim chaos -mix all -ops 5000 -seed 1 -async

# Disk-fault sweep: crash-bearing message mix with every disk damage mix
# layered under it, on both runtimes.
diskchaos:
	$(GO) run ./cmd/quorumsim chaos -disk all -ops 3000 -seed 1
	$(GO) run ./cmd/quorumsim chaos -disk all -ops 3000 -seed 1 -async

# Churn soak: self-healing daemon on vs off on identical schedules, both
# runtimes, asserting 1SR + convergence + the availability win.
soak:
	$(GO) run ./cmd/quorumsim churn -seeds 3 -ops 4000 -seed 1

# The repository's one end-to-end benchmark (bench/README.md): five
# workloads, four gated metrics each, ~15 timed seconds per workload.
e2e:
	$(GO) run ./bench

# The same at 5% scale and one timed second per workload (~8 s): checks
# that every workload builds, runs and passes its output checks. Its
# numbers are not comparable with a full run's.
e2e-smoke:
	$(GO) run ./bench -scale 0.05 -seconds 1

# One gate: every suite emits rows in the one schema and `gate.Check`
# compares them with the committed baseline — certificates, capacities and
# solver counters, regret/op of the daemon-on / resolve / φ runs at +0.02,
# the hedged p99 ratio, weighted-vote values at 1e-9, the paper's
# reproduced availabilities at ±0.005 and its claims as bounds. No row is a
# timing (those are bench/'s). The regret, weights and paper suites also
# run inside `go test ./cmd/quorumsim`.
gate:
	@set -e; for s in $(SUITE); do f=BENCH_$$(echo $$s | tr - _).json; \
		$(GO) run ./cmd/quorumsim suite $$s -seed 1 -baseline $$f; done

# Regenerate the committed baselines.
gate-update:
	@set -e; for s in $(SUITE); do f=BENCH_$$(echo $$s | tr - _).json; \
		$(GO) run ./cmd/quorumsim suite $$s -seed 1 -out $$f; done

# The one definition of "lines of code" (ROADMAP: net non-test line count
# goes down): non-blank, non-comment lines of *.go minus *_test.go, for the
# protocol package, the replica model, the durable store, the statistics
# substrate, the Figure-1 core, the fault schedules, the vote search, the
# strategy optimizer, the CLIs, and the repository outside bench/.
LOC = xargs cat | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l
loc:
	@printf 'internal/cluster      %6d\n' $$(find internal/cluster -name '*.go' ! -name '*_test.go' | $(LOC))
	@printf 'internal/replica      %6d\n' $$(find internal/replica -name '*.go' ! -name '*_test.go' | $(LOC))
	@printf 'internal/store        %6d\n' $$(find internal/store -name '*.go' ! -name '*_test.go' | $(LOC))
	@printf 'internal/stats        %6d\n' $$(find internal/stats -name '*.go' ! -name '*_test.go' | $(LOC))
	@printf 'internal/core         %6d\n' $$(find internal/core -name '*.go' ! -name '*_test.go' | $(LOC))
	@printf 'internal/faults       %6d\n' $$(find internal/faults -name '*.go' ! -name '*_test.go' | $(LOC))
	@printf 'internal/votes        %6d\n' $$(find internal/votes -name '*.go' ! -name '*_test.go' | $(LOC))
	@printf 'internal/strategy     %6d\n' $$(find internal/strategy -name '*.go' ! -name '*_test.go' | $(LOC))
	@printf 'cmd/                  %6d\n' $$(find cmd -name '*.go' ! -name '*_test.go' | $(LOC))
	@printf 'repo outside bench/   %6d\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | $(LOC))

# Hedged-read demo: the slow-replica scenario unhedged vs hedged.
hedge:
	$(GO) run ./cmd/quorumsim hedge -seed 1

# Weighted-vote annealing demo: a 50-site star scored against the frozen
# scenario sample, plus the end-to-end crosscheck of the scenario engine's
# prediction against the discrete-event simulator.
weights:
	$(GO) run ./cmd/quorumsim votes -net star -sites 50 -search anneal -p 0.9 -r 0.7 \
		-alpha 0.5 -max 4 -scenarios 2000 -seed 1
	$(GO) run ./cmd/quorumsim weightcheck -sites 9 -alpha 0.75 -seed 1

# Solve the case-study system for a certified capacity-optimal randomized
# strategy and print it (see also `quorumsim strategy -objective latency`).
strategy:
	$(GO) run ./cmd/quorumsim strategy

# Per-rung solver micro-benchmarks, one rung per solve path (DESIGN §15
# "Which path"): one certified resilient-capacity solve at 9 sites (≤ 256
# quorums a side: the whole LP enumerated and solved from the crash basis),
# 11 and 13 (≤ 2,048: column generation to exact pricing convergence) and
# 31 (beyond: column generation to the 5% gap). ns/op, B/op and allocs/op
# in seconds — the quick read while working on the solver; the gated
# numbers are `make gate SUITE=strategy`'s certificates and pivot counts
# and the end-to-end solve-ladder's timings.
bench-solver:
	$(GO) test ./internal/strategy/ -run xxx -bench Ladder -benchmem -count 3

# The serving twin: ns/op and allocs/op of the message path — the sampled
# read and write bench/ serves, the gated read, the baseline read and write rounds, a
# healthy detector tick, a memoized survivor re-solve, the codec as the
# runtime drives it and a write through the durable store. allocs/op is the number to watch (TestMessagePathZeroAlloc
# holds the bench's configuration at 0); the gated timings are bench/'s
# serve-* workloads, and churn-resolve's for the re-solve.
bench-serve:
	$(GO) test ./internal/cluster -run xxx \
		-bench 'ServeReadSampled|ServeWriteSampled|ServeReadHealthy|WriteRound|ReadCollectDrain|DaemonStep$$|DaemonResolve|DaemonAttempt|GossipEstimates|CodecVoteReply|WriteDurable' \
		-benchmem -count 3

# The simulator twin: ns/op and allocs/op of one paper-study cell exactly as
# bench/ runs it (Collect 3000 → Optimize → MeasureAvailability 5 × 600 at
# 101 sites, the chords × α grid in bench/'s order) — the quick read while
# working on the event queue, graph.State or the estimator; add
# `-cpuprofile` by hand for the per-function split. The gated timings are
# bench/'s paper-study workload; TestCellAllocBudget holds allocs/op.
bench-sim:
	$(GO) test ./internal/sim -run xxx -bench PaperCell -benchmem -count 3

# Large-N study smoke: a reduced chords × α grid at paper scale.
study:
	$(GO) run ./cmd/quorumsim study -sites 301 -chords 0,4 -alphas 0.75 \
		-warmup 1000 -batch 20000 -minbatches 3 -maxbatches 5 -ci 0.01 -parallel 4
