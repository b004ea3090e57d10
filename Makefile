# Verification tiers for quorumkit. `make check` is the gate a change must
# pass before it lands: vet, build, the full test suite, the race detector
# over the concurrent runtime and the simulator, and the observability
# coverage gate.

GO ?= go

.PHONY: check vet build test race cover-obs cover-store cover-sim cover-workload cover-faults cover-strategy cover-votes fuzz chaos diskchaos soak adversary strategy-chaos grayfail hedge weights bench bench-robustness bench-obs bench-store bench-core bench-core-update bench-adversary bench-adversary-update bench-gray bench-gray-update bench-strategy bench-strategy-update bench-solver bench-strategy-adversity bench-strategy-adversity-update bench-weights bench-weights-update strategy study e2e e2e-smoke

check: vet build test race cover-obs cover-store cover-sim cover-workload cover-faults cover-strategy cover-votes bench-strategy-adversity

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The observability substrate must stay near-fully covered: it is the one
# layer whose bugs silently corrupt what every harness asserts on.
cover-obs:
	$(GO) test -coverprofile=/tmp/obs.cover ./internal/obs/ >/dev/null
	@$(GO) tool cover -func=/tmp/obs.cover | awk '/^total:/ { \
		pct = $$3 + 0; \
		printf "internal/obs coverage: %s (gate: 90%%)\n", $$3; \
		if (pct < 90) { print "FAIL: internal/obs coverage below 90%"; exit 1 } }'

# The storage engine is the crash-safety bedrock: recovery correctness is
# exactly what the chaos harnesses assume, so it stays near-fully covered.
cover-store:
	$(GO) test -coverprofile=/tmp/store.cover ./internal/store/ >/dev/null
	@$(GO) tool cover -func=/tmp/store.cover | awk '/^total:/ { \
		pct = $$3 + 0; \
		printf "internal/store coverage: %s (gate: 90%%)\n", $$3; \
		if (pct < 90) { print "FAIL: internal/store coverage below 90%"; exit 1 } }'

# The simulator is the measurement instrument every study result rests on:
# the large-N engine's equivalence proofs (sweep vs per-assignment, reset
# vs fresh, parallel vs serial) only bind if the paths they compare are
# exercised, so the package stays near-fully covered.
cover-sim:
	$(GO) test -coverprofile=/tmp/sim.cover ./internal/sim/ >/dev/null
	@$(GO) tool cover -func=/tmp/sim.cover | awk '/^total:/ { \
		pct = $$3 + 0; \
		printf "internal/sim coverage: %s (gate: 90%%)\n", $$3; \
		if (pct < 90) { print "FAIL: internal/sim coverage below 90%"; exit 1 } }'

# The workload generators parameterize every adversarial scenario; a
# mis-shaped α(t) or rate curve silently invalidates the regret numbers,
# so the package stays near-fully covered.
cover-workload:
	$(GO) test -coverprofile=/tmp/workload.cover ./internal/workload/ >/dev/null
	@$(GO) tool cover -func=/tmp/workload.cover | awk '/^total:/ { \
		pct = $$3 + 0; \
		printf "internal/workload coverage: %s (gate: 90%%)\n", $$3; \
		if (pct < 90) { print "FAIL: internal/workload coverage below 90%"; exit 1 } }'

# The fault schedules are the stimulus side of every robustness claim: a
# latency rule that fires on the wrong link or step makes the gray-failure
# verdicts meaningless, so the package stays near-fully covered.
cover-faults:
	$(GO) test -coverprofile=/tmp/faults.cover ./internal/faults/ >/dev/null
	@$(GO) tool cover -func=/tmp/faults.cover | awk '/^total:/ { \
		pct = $$3 + 0; \
		printf "internal/faults coverage: %s (gate: 90%%)\n", $$3; \
		if (pct < 90) { print "FAIL: internal/faults coverage below 90%"; exit 1 } }'

# The strategy optimizer certifies its own answers, but a certificate only
# binds the paths that run: the simplex edge cases, pricing, and the
# column-generation rebuild logic stay near-fully covered.
cover-strategy:
	$(GO) test -coverprofile=/tmp/strategy.cover ./internal/strategy/ >/dev/null
	@$(GO) tool cover -func=/tmp/strategy.cover | awk '/^total:/ { \
		pct = $$3 + 0; \
		printf "internal/strategy coverage: %s (gate: 90%%)\n", $$3; \
		if (pct < 90) { print "FAIL: internal/strategy coverage below 90%"; exit 1 } }'

# The vote-weight search accepts nothing without a pigeonhole intersection
# certificate, and its oracle tests (brute-force certifier, exhaustive
# optimum, seed-engine equivalence) only bind the paths they exercise, so
# the package stays near-fully covered.
cover-votes:
	$(GO) test -coverprofile=/tmp/votes.cover ./internal/votes/ >/dev/null
	@$(GO) tool cover -func=/tmp/votes.cover | awk '/^total:/ { \
		pct = $$3 + 0; \
		printf "internal/votes coverage: %s (gate: 90%%)\n", $$3; \
		if (pct < 90) { print "FAIL: internal/votes coverage below 90%"; exit 1 } }'

# Short continuous fuzz of the wire codec (the committed corpus always
# replays as part of `make test`).
fuzz:
	$(GO) test ./internal/cluster/ -run FuzzUnmarshalPayload -fuzz FuzzUnmarshalPayload -fuzztime 30s

# Short continuous fuzz of the store record decoder against arbitrary log
# damage (the committed corpus replays in `make test`).
fuzz-store:
	$(GO) test ./internal/store/ -run FuzzFoldLog -fuzz FuzzFoldLog -fuzztime 30s

# Short continuous fuzz of the simplex solver: random LPs must always yield
# a verifiable certificate (optimality, Farkas, or unbounded ray).
fuzz-simplex:
	$(GO) test ./internal/strategy/ -run FuzzSimplex -fuzz FuzzSimplex -fuzztime 30s

# Short continuous fuzz of the strategy decoder: a corrupted serialized
# strategy must always be rejected with a typed DecodeError, never armed.
fuzz-strategy:
	$(GO) test ./internal/strategy/ -run FuzzStrategyDecode -fuzz FuzzStrategyDecode -fuzztime 30s

# Seeded fault-injection sweep over every mix on both runtimes.
chaos:
	$(GO) run ./cmd/quorumsim -chaos -chaosmix all -ops 5000 -seed 1
	$(GO) run ./cmd/quorumsim -chaos -chaosmix all -ops 5000 -seed 1 -async

# Disk-fault sweep: crash-bearing message mix with every disk damage mix
# layered under it, on both runtimes.
diskchaos:
	$(GO) run ./cmd/quorumsim -diskchaos -diskmix all -ops 3000 -seed 1
	$(GO) run ./cmd/quorumsim -diskchaos -diskmix all -ops 3000 -seed 1 -async

# Churn soak: self-healing daemon on vs off on identical schedules, both
# runtimes, asserting 1SR + convergence + the availability win.
soak:
	$(GO) run ./cmd/quorumsim -churn -seeds 3 -soakops 4000 -seed 1

# Adversarial scenario suite: diurnal drift, flash crowds, and partition
# storms replayed daemon-on vs daemon-off, scored against the epoch oracle
# and gated on the committed regret baseline.
adversary:
	$(GO) run ./cmd/quorumsim -adversary /tmp/BENCH_adversary.json -adversarybase BENCH_adversary.json -seed 1

# Strategy-adversity suite: the same scenarios with a certified randomized
# strategy installed at boot, frozen vs daemon re-solving on identical
# stimuli. Fails on any 1SR or minority-write verdict, a scenario whose
# strategy never served, a missing certified re-solve, or re-solve regret
# not strictly below frozen regret.
strategy-chaos:
	$(GO) run ./cmd/quorumsim -strategychaos /tmp/BENCH_strategy_adversity.json -seed 1

bench:
	$(GO) test -bench=. -benchmem

# The repository's one end-to-end benchmark (bench/README.md): five
# workloads, four gated metrics each, ~15 timed seconds per workload.
e2e:
	$(GO) run ./bench

# The same at 5% scale and one timed second per workload (~8 s): checks
# that every workload builds, runs and passes its output checks. Its
# numbers are not comparable with a full run's.
e2e-smoke:
	$(GO) run ./bench -scale 0.05 -seconds 1

# Regenerate the committed robustness benchmark snapshot.
bench-robustness:
	$(GO) run ./cmd/quorumsim -benchjson BENCH_robustness.json -seed 1

# Regenerate the committed observability overhead snapshot (asserts the
# no-op path stays effectively free).
bench-obs:
	$(GO) run ./cmd/quorumsim -benchobs BENCH_obs.json -seed 1

# Regenerate the committed storage-engine overhead snapshot (asserts one
# log append stays under 5% of a seed write op; whole-path overhead is
# reported for context).
bench-store:
	$(GO) run ./cmd/quorumsim -benchstore BENCH_store.json -seed 1

# Core-kernel regression gate: re-measure the study engine's hot kernels
# and fail on any heap allocation in steady-state access, a family-sweep
# speedup below 5×, a sweep that is not bit-identical to the
# per-assignment reference, or a calibrated slowdown of more than 10%
# against the committed BENCH_core.json.
bench-core:
	$(GO) run ./cmd/quorumsim -benchcore /tmp/BENCH_core.json -benchbase BENCH_core.json -seed 1

# Regenerate the committed core-kernel baseline (run on an idle machine).
bench-core-update:
	$(GO) run ./cmd/quorumsim -benchcore BENCH_core.json -seed 1

# Adversary regret gate: replay the scenario suite and fail on any safety
# or regret verdict, or on daemon-on regret/op drifting above the
# committed BENCH_adversary.json baseline.
bench-adversary:
	$(GO) run ./cmd/quorumsim -adversary /tmp/BENCH_adversary.json -adversarybase BENCH_adversary.json -seed 1

# Regenerate the committed adversary regret baseline.
bench-adversary-update:
	$(GO) run ./cmd/quorumsim -adversary BENCH_adversary.json -seed 1

# Strategy-adversity regret gate: replay the suite with strategies
# installed and fail on any safety or re-solve verdict, or on re-solve
# regret/op drifting above the committed BENCH_strategy_adversity.json.
bench-strategy-adversity:
	$(GO) run ./cmd/quorumsim -strategychaos /tmp/BENCH_strategy_adversity.json -strategyadversitybase BENCH_strategy_adversity.json -seed 1

# Regenerate the committed strategy-adversity baseline.
bench-strategy-adversity-update:
	$(GO) run ./cmd/quorumsim -strategychaos BENCH_strategy_adversity.json -seed 1

# Gray-failure suite: slow replicas, gray storms, and the assignment-
# adaptive adversary, replayed daemon-off / miss-count / φ-accrual on
# identical seeded stimuli. Fails on any safety verdict, a broken
# φ < miss-count < off regret ordering, an inexact regret decomposition,
# or a hedged-read p99 win below 20%.
grayfail:
	$(GO) run ./cmd/quorumsim -grayfail /tmp/BENCH_gray.json -benchgray BENCH_gray.json -seed 1

# Hedged-read demo: the slow-replica scenario unhedged vs hedged.
hedge:
	$(GO) run ./cmd/quorumsim -hedge -seed 1

# Gray-failure gate against the committed BENCH_gray.json baseline.
bench-gray:
	$(GO) run ./cmd/quorumsim -grayfail /tmp/BENCH_gray.json -benchgray BENCH_gray.json -seed 1

# Regenerate the committed gray-failure baseline.
bench-gray-update:
	$(GO) run ./cmd/quorumsim -grayfail BENCH_gray.json -seed 1

# Weighted-vote annealing demo: a 50-site star scored against the frozen
# scenario sample, plus the end-to-end crosscheck of the scenario engine's
# prediction against the discrete-event simulator.
weights:
	$(GO) run ./cmd/voteopt -net star -n 50 -search anneal -p 0.9 -r 0.7 \
		-alpha 0.5 -max 4 -scenarios 2000 -seed 1
	$(GO) run ./cmd/quorumsim -weightcheck -weightsites 9 -alpha 0.75 -seed 1

# Weighted-vote search gate: re-run the annealing benchmark suite and fail
# on an uncertified accept, a same-seed rerun that is not bit-identical, a
# weighted value below the uniform baseline, or drift beyond 1e-9 relative
# from the committed BENCH_weights.json.
bench-weights:
	$(GO) run ./cmd/voteopt -benchweights /tmp/BENCH_weights.json \
		-weightsbase BENCH_weights.json -seed 1

# Regenerate the committed weighted-vote baseline.
bench-weights-update:
	$(GO) run ./cmd/voteopt -benchweights BENCH_weights.json -seed 1

# Solve the case-study system for a certified capacity-optimal randomized
# strategy and print it (see also `quorumopt -strategy -objective latency`).
strategy:
	$(GO) run ./cmd/quorumopt -strategy

# Strategy regression gate: re-solve the suite and fail on an invalid
# certificate, a randomization gain that no longer strictly beats the best
# deterministic assignment, sim-vs-LP capacity disagreement over 2%, a
# large-N bound gap over target, or a calibrated solve-time regression
# >50% against the committed BENCH_strategy.json.
bench-strategy:
	$(GO) run ./cmd/quorumsim -benchstrategy /tmp/BENCH_strategy.json -strategybase BENCH_strategy.json -seed 1

# Regenerate the committed strategy baseline (run on an idle machine).
bench-strategy-update:
	$(GO) run ./cmd/quorumsim -benchstrategy BENCH_strategy.json -seed 1

# Per-rung solver micro-benchmarks: one certified resilient-capacity solve
# at 9, 11 (enumeration) and 31 sites (column generation), ns/op and
# allocs/op in seconds — the quick read while working on the solver; the
# gated numbers are bench-strategy's and the end-to-end solve-ladder's.
bench-solver:
	$(GO) test ./internal/strategy/ -run xxx -bench Ladder -benchmem -count 3

# Large-N study smoke: a reduced chords × α grid at paper scale.
study:
	$(GO) run ./cmd/quorumsim -study -sites 301 -chords 0,4 -alphas 0.75 \
		-warmup 1000 -batch 20000 -minbatches 3 -maxbatches 5 -ci 0.01 -parallel 4
