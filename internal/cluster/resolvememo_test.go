package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/stats"
	"quorumkit/internal/strategy"
)

// coldSolve solves one survivor set from scratch — its own subsystem, solve,
// certificate and remap, sharing no code with the memo's miss path — as the
// reference every memoized outcome is held to.
func coldSolve(cfg HealthConfig, votes, sites []int, qr, qw int) (strategy.Strategy, error) {
	n := len(sites)
	sub := strategy.System{Votes: make([]int, n), QR: qr, QW: qw,
		ReadCap: make([]float64, n), WriteCap: make([]float64, n), Latency: make([]float64, n)}
	for j, g := range sites {
		sub.Votes[j] = votes[g]
		sub.ReadCap[j], sub.WriteCap[j], sub.Latency[j] = 1, 1, 1
	}
	res, err := strategy.OptimizeResilientCapacity(sub, strategy.SingleFr(cfg.Alpha), cfg.Strategy.Resilience, strategy.Options{})
	if err != nil {
		return strategy.Strategy{}, err
	}
	if err := res.Certify(1e-6); err != nil {
		return strategy.Strategy{}, err
	}
	global := func(qs []strategy.Quorum) []strategy.Quorum {
		out := make([]strategy.Quorum, len(qs))
		for i, q := range qs {
			out[i] = make(strategy.Quorum, len(q))
			for k, j := range q {
				out[i][k] = sites[j]
			}
		}
		return out
	}
	return strategy.Strategy{
		ReadQuorums: global(res.Strategy.ReadQuorums), ReadProbs: res.Strategy.ReadProbs,
		WriteQuorums: global(res.Strategy.WriteQuorums), WriteProbs: res.Strategy.WriteProbs,
	}, nil
}

// checkMemo holds every entry of k's memo to a cold solve of its key under
// the config in force: the same strategy, or the same error.
func checkMemo(t *testing.T, k *coordinator) {
	t.Helper()
	votes := k.voteVector()
	for key, r := range k.health.memo {
		var sites []int
		for i := range votes {
			if key.survivors[i/8]>>(i%8)&1 == 1 {
				sites = append(sites, i)
			}
		}
		st, err := coldSolve(k.health.cfg, votes, sites, key.qr, key.qw)
		if (err == nil) != (r.err == nil) || err != nil && err.Error() != r.err.Error() {
			t.Fatalf("survivors %v at (%d,%d): memo error %v, cold error %v", sites, key.qr, key.qw, r.err, err)
		}
		if !reflect.DeepEqual(st, r.st) {
			t.Fatalf("survivors %v at (%d,%d): memo strategy\n%+v\ncold strategy\n%+v", sites, key.qr, key.qw, r.st, st)
		}
	}
}

// TestResolveMemoMatchesColdSolve is the memo's differential check on both
// runtimes: after a churn soak with amnesiac repairs and an f = 1 strategy
// re-solving on every suspicion edge, every memo entry equals a cold solve
// of its key, every cold solve was of a distinct key, and every daemon
// attempt still ended in exactly one re-solve outcome — installed or
// degraded — as it did before the memo. At α = 0.6 the daemon's thresholds
// leave some survivor sets f = 1 feasible and others not, so both kinds of
// stored outcome are hit.
func TestResolveMemoMatchesColdSolve(t *testing.T) {
	const steps, alpha = 4000, 0.6
	for seed := uint64(1); seed <= 2; seed++ {
		health := HealthConfig{Alpha: alpha, Strategy: StrategyResolveConfig{Enabled: true, Resilience: 1}}
		cfg := SoakScenario(seed, steps, 9, 9, alpha, soakTestChurn(), true, health)
		cfg.AmnesiaFraction = 0.2
		st := advSeedStrategy(t)
		cfg.Strategy = &st
		cfg.StrategySeed = seed

		det := newSoakCluster(t)
		a, err := NewAsync(graph.NewState(graph.Ring(9), nil), quorum.Majority(9))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(a.Close)
		var counters []stats.StrategyCounters
		for _, rt := range []struct {
			name string
			rt   Runtime
			k    *coordinator
		}{{"deterministic", det, &det.coordinator}, {"async", a, &a.coordinator}} {
			run := runSoak(t, rt.rt, cfg)
			ct, h, memo := run.Strategy, run.Health, rt.k.health.memo
			if len(memo) >= resolveMemoCap {
				t.Fatalf("seed %d %s: %d keys fill the memo; distinct-key accounting does not apply", seed, rt.name, len(memo))
			}
			if ct.ResolveSolves != int64(len(memo)) {
				t.Fatalf("seed %d %s: %d cold solves for %d distinct keys", seed, rt.name, ct.ResolveSolves, len(memo))
			}
			if attempts := h.DaemonReassigns + h.DaemonNoChanges; ct.Resolves+ct.ResolveFails != attempts {
				t.Fatalf("seed %d %s: %d re-solve outcomes for %d daemon attempts: %+v", seed, rt.name, ct.Resolves+ct.ResolveFails, attempts, ct)
			}
			if ct.Resolves == 0 || ct.ResolveFails == 0 || ct.Resolves+ct.ResolveFails <= ct.ResolveSolves {
				t.Fatalf("seed %d %s: soak never installed, never degraded or never hit the memo: %+v", seed, rt.name, ct)
			}
			checkMemo(t, rt.k)
			counters = append(counters, ct)
		}
		if d, as := counters[0], counters[1]; d != as {
			t.Fatalf("seed %d: runtimes diverge:\n det %v solves=%d\n asy %v solves=%d", seed, d, d.ResolveSolves, as, as.ResolveSolves)
		}
	}
}

// newResolveCluster builds a complete(5) cluster with self-healing under
// cfg and the hand-built Majority(5) strategy installed.
func newResolveCluster(t *testing.T, cfg HealthConfig) *Cluster {
	t.Helper()
	c, _ := newHealthCluster(t, cfg)
	if err := c.InstallStrategy(handStrategy5(), quorum.Majority(5), c.NodeVersion(0), 3, 7); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestResolveMemoDiesWithConfig: EnableSelfHealing again brings a new memo
// with its config, so the same survivor set and thresholds solve afresh —
// a stale hit would skip the solve at the new read fraction, or miss the
// infeasibility a higher resilience brings.
func TestResolveMemoDiesWithConfig(t *testing.T) {
	cfg := DefaultHealthConfig()
	cfg.Strategy = StrategyResolveConfig{Enabled: true}
	c := newResolveCluster(t, cfg)
	suspect4 := []int{4}
	c.strategyResolve(0, suspect4)
	checkMemo(t, &c.coordinator)

	writeHeavy := cfg
	writeHeavy.Alpha = 0.2
	c.EnableSelfHealing(writeHeavy)
	c.strategyResolve(0, suspect4)
	checkMemo(t, &c.coordinator)
	if ct := c.StrategyCounters(); ct.ResolveSolves != 2 {
		t.Fatalf("a new read fraction must solve afresh: %v solves=%d", ct, ct.ResolveSolves)
	}

	resilient := cfg
	resilient.Strategy.Resilience = 1
	c.EnableSelfHealing(resilient)
	c.strategyResolve(0, suspect4)
	checkMemo(t, &c.coordinator)

	ct := c.StrategyCounters()
	if ct.ResolveSolves != 3 || ct.Resolves != 2 || ct.ResolveFails != 1 {
		t.Fatalf("three configs must solve three times, the f = 1 one infeasibly: %v solves=%d", ct, ct.ResolveSolves)
	}
}

// TestResolveMemoMissesOnNewThresholds: the thresholds are part of the key —
// after a reassignment the same survivor set is a miss, and a repeat at the
// new thresholds a hit.
func TestResolveMemoMissesOnNewThresholds(t *testing.T) {
	cfg := DefaultHealthConfig()
	cfg.Strategy = StrategyResolveConfig{Enabled: true}
	c := newResolveCluster(t, cfg)
	c.strategyResolve(0, []int{4})
	if err := c.Reassign(0, quorum.Assignment{QR: 3, QW: 3}); err != nil {
		t.Fatal(err)
	}
	c.strategyResolve(0, []int{4})
	c.strategyResolve(0, []int{4})
	if ct := c.StrategyCounters(); ct.ResolveSolves != 2 || ct.Resolves != 3 || len(c.health.memo) != 2 {
		t.Fatalf("want 2 solves, 3 installs and 2 keys; got %v solves=%d over %d keys", ct, ct.ResolveSolves, len(c.health.memo))
	}
	checkMemo(t, &c.coordinator)
}

// TestResolveMemoCap: more distinct survivor sets than resolveMemoCap, each
// resolved twice, leave exactly the cap stored — the first lap's first cap
// keys — re-solve the rest cold on the second lap, and install (or degrade)
// every time exactly as a cold solve says.
func TestResolveMemoCap(t *testing.T) {
	const n, sets = 9, resolveMemoCap + 44
	c, err := New(graph.NewState(graph.Complete(n), nil), quorum.Majority(n))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultHealthConfig()
	cfg.Strategy = StrategyResolveConfig{Enabled: true}
	c.EnableSelfHealing(cfg)
	if err := c.InstallStrategy(advSeedStrategy(t), quorum.Majority(n), c.NodeVersion(0), 3, 1); err != nil {
		t.Fatal(err)
	}
	a, votes := quorum.Majority(n), c.voteVector()
	for lap := 0; lap < 2; lap++ {
		for m := 0; m < sets; m++ {
			var suspected, sites []int
			for p := 0; p < n; p++ {
				if m>>p&1 == 1 {
					suspected = append(suspected, p)
				} else {
					sites = append(sites, p)
				}
			}
			before := c.StrategyCounters()
			c.strategyResolve(0, suspected)
			after := c.StrategyCounters()
			_, coldErr := coldSolve(c.health.cfg, votes, sites, a.QR, a.QW)
			installed := after.Resolves == before.Resolves+1 && c.strat.sampler != nil
			degraded := after.ResolveFails == before.ResolveFails+1 && c.strat.sampler == nil
			if coldErr == nil && !installed || coldErr != nil && !degraded {
				t.Fatalf("lap %d suspected %v: cold error %v, counters %+v → %+v", lap, suspected, coldErr, before, after)
			}
		}
	}
	if ct := c.StrategyCounters(); len(c.health.memo) != resolveMemoCap || ct.ResolveSolves != 2*sets-resolveMemoCap {
		t.Fatalf("memo holds %d keys after %d cold solves; want %d and %d",
			len(c.health.memo), ct.ResolveSolves, resolveMemoCap, 2*sets-resolveMemoCap)
	}
	checkMemo(t, &c.coordinator)
}

// TestResolveMemoHitMatchesFreshInstall holds a memo hit, which re-arms the
// sampler stored with the entry, to what the daemon did before entries held
// one: solve cold and install — validate, canonicalize, build — on every
// attempt. Step by step over repeated survivor sets, an infeasible one, a
// change of thresholds and an entry whose stored strategy fails validation,
// the runtime and a reference state fed that way (written out here, sharing
// no install code with the runtime) arm equal samplers or degrade alike,
// draw the same read and write quorums from the same RNG stream, and count
// the same Installs, Resolves and ResolveFails; the runtime solves once per
// distinct key.
func TestResolveMemoHitMatchesFreshInstall(t *testing.T) {
	c := benchConfigCluster(t)
	cfg, votes := c.health.cfg, c.voteVector()
	ref := &strategyState{counters: c.strat.counters}
	src := *c.strat.src
	ref.src = &src

	// Two outcomes stored as a solve stores them, at Majority(9): under
	// suspects {3} a strategy the votes cannot carry (one-site quorums), so
	// every hit of that key must degrade; under {6} a valid strategy out of
	// canonical order, with a zero-probability quorum, so the stored sampler
	// must be built from its canonical form.
	maj := quorum.Majority(9)
	injected := map[int]strategy.Strategy{
		3: {
			ReadQuorums: []strategy.Quorum{{0}}, ReadProbs: []float64{1},
			WriteQuorums: []strategy.Quorum{{0, 1, 2, 3, 4}}, WriteProbs: []float64{1},
		},
		6: {
			ReadQuorums: []strategy.Quorum{{2, 3, 7, 8}, {0, 1, 4, 5}, {0, 2, 4, 7}}, ReadProbs: []float64{0.5, 0.5, 0},
			WriteQuorums: []strategy.Quorum{{1, 2, 3, 4, 5, 7}, {0, 1, 2, 4, 5, 8}}, WriteProbs: []float64{0.25, 0.75},
		},
	}
	for p, st := range injected {
		key := resolveKey{survivors: string(survivorMask(nil, 9, []int{p})), qr: maj.QR, qw: maj.QW}
		c.health.memo[key] = newResolved(st, votes, maj)
	}
	keys := map[string]bool{}

	steps := [][]int{{8}, {2, 5}, nil, {8}, {3}, {0, 1, 2, 3}, {6}, {2, 5}, {3}, {6}, nil, {0, 1, 2, 3}}
	for lap := 0; lap < 2; lap++ {
		if lap == 1 {
			if err := c.Reassign(0, quorum.Assignment{QR: 3, QW: 7}); err != nil {
				t.Fatal(err)
			}
		}
		for i, sus := range steps {
			_, s := c.view(0)
			c.strategyResolve(0, sus)

			// The reference: today's cold path for the same key.
			var sites []int
			for p := 0; p < 9; p++ {
				if !slices.Contains(sus, p) {
					sites = append(sites, p)
				}
			}
			keys[fmt.Sprint(sites, s.QR, s.QW)] = true
			st, err := coldSolve(cfg, votes, sites, s.QR, s.QW)
			if len(sus) == 1 && s.Assignment() == maj {
				if inj, ok := injected[sus[0]]; ok {
					st, err = inj, nil // the stored outcome, installed afresh
				}
			}
			if err == nil {
				ones := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}
				err = st.Validate(strategy.System{Votes: votes, QR: s.QR, QW: s.QW, ReadCap: ones, WriteCap: ones, Latency: ones})
			}
			if err != nil {
				ref.sampler = nil
				ref.counters.ResolveFails++
			} else {
				ref.sampler = strategy.NewSampler(st.Canonical(0))
				ref.version, ref.budget = s.Version, strategyBudget
				ref.counters.Installs++
				ref.counters.Resolves++
			}

			got, want := c.strat.counters, ref.counters
			if got.Installs != want.Installs || got.Resolves != want.Resolves || got.ResolveFails != want.ResolveFails {
				t.Fatalf("lap %d step %d (suspects %v): counters %+v, fresh installs %+v", lap, i, sus, got, want)
			}
			if !reflect.DeepEqual(c.strat.sampler, ref.sampler) {
				t.Fatalf("lap %d step %d (suspects %v): armed %v, fresh install armed %v, or their tables differ",
					lap, i, sus, c.strat.sampler != nil, ref.sampler != nil)
			}
			for d := 0; d < 40; d++ {
				write := d%2 == 1
				q, budget, stale, ok := c.strat.draw(write, false, s.Version)
				rq, rbudget, rstale, rok := ref.draw(write, false, s.Version)
				if !slices.Equal(q, rq) || budget != rbudget || stale != rstale || ok != rok {
					t.Fatalf("lap %d step %d draw %d: %v %d %v %v, fresh install %v %d %v %v",
						lap, i, d, q, budget, stale, ok, rq, rbudget, rstale, rok)
				}
			}
		}
	}
	// One solve per distinct key but the two injected ones, never solved.
	if ct := c.StrategyCounters(); ct.ResolveSolves != int64(len(keys)-2) || ct.ResolveFails == 0 || ct.Resolves == 0 {
		t.Fatalf("%+v solves=%d for %d distinct keys (two injected)", ct, ct.ResolveSolves, len(keys))
	}
}
