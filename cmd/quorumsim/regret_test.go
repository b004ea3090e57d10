package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quorumkit/internal/gate"
)

// TestRegretSuitesMatchBaselines runs the three deterministic regret suites,
// the weights suite and the paper suite in-process at their committed seed
// and steps: every verdict and bound must hold, the rows must pass the gate
// against the committed BENCH file, two same-seed runs must be
// byte-identical, and the gate must bite — a baseline whose
// first compared row (the gated mode's regret/op, held to 0.02; a
// weighted-vote value, held to 1e-9; a paper curve value, held to 0.005) is
// moved by `by` or deleted must fail naming that row. (strategy, ~4 s a
// run, is held to the same contract by `make gate` only.)
func TestRegretSuitesMatchBaselines(t *testing.T) {
	for name, tc := range map[string]struct {
		committed, gated string
		by               float64
	}{
		"adversary":          {"BENCH_adversary.json", "/on.regret_per_op", -0.05},
		"strategy-adversity": {"BENCH_strategy_adversity.json", "/resolve.regret_per_op", -0.05},
		"gray":               {"BENCH_gray.json", "/phi.regret_per_op", -0.05},
		"weights":            {"BENCH_weights.json", "star-100-avail.value", -0.05},
		"paper":              {"BENCH_paper.json", "t0/a0.00/qr1", 0.01},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			committed := filepath.Join("..", "..", tc.committed)
			suite, err := suiteNamed(name)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			want, err := os.ReadFile(committed)
			if err != nil {
				t.Fatal(err)
			}
			// A run byte-identical to the committed file, which an earlier
			// process wrote, already shows that the seed reproduces the
			// bytes; otherwise (a stale file within tolerance, or another
			// platform's floats) a second run here must match the first.
			var written [2][]byte
			var file gate.File
			for i := range written {
				var ok bool
				if file, ok, err = suite(0, 1, nil); err != nil || !ok {
					t.Fatalf("run %d: verdicts ok=%v err=%v", i, ok, err)
				}
				path := filepath.Join(dir, "out.json")
				if err := gate.Write(path, file); err != nil {
					t.Fatal(err)
				}
				if written[i], err = os.ReadFile(path); err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(written[i], want) {
					break
				}
				t.Logf("%s is not byte-identical to run %d (within tolerance; `make gate-update SUITE=%s` refreshes it)", committed, i, name)
			}
			if written[1] != nil && !bytes.Equal(written[0], written[1]) {
				t.Fatal("two same-seed runs are not byte-identical")
			}
			if fails := gate.Check(file, committed); fails != nil {
				t.Fatalf("gate against %s: %q", committed, fails)
			}

			// Mutations of the baseline.
			base, err := gate.Read(committed)
			if err != nil {
				t.Fatal(err)
			}
			gated := -1
			for i, r := range base.Rows {
				if r.Better != "" && gated < 0 {
					gated = i
				}
			}
			if gated < 0 || !strings.HasSuffix(base.Rows[gated].Name, tc.gated) {
				t.Fatalf("first compared row of %s is %d, want a %s row", committed, gated, tc.gated)
			}
			mutated := filepath.Join(dir, "mutated.json")
			check := func(what string) {
				t.Helper()
				if err := gate.Write(mutated, base); err != nil {
					t.Fatal(err)
				}
				fails := gate.Check(file, mutated)
				if len(fails) != 1 || !strings.HasPrefix(fails[0], file.Rows[gated].Name+":") {
					t.Fatalf("%s: failures %q, want exactly one naming %s", what, fails, file.Rows[gated].Name)
				}
			}
			base.Rows[gated].Value += tc.by
			check(fmt.Sprintf("baseline value moved by %+g", tc.by))
			base.Rows = append(base.Rows[:gated:gated], base.Rows[gated+1:]...)
			check("gated row deleted from the baseline")
		})
	}
}

// TestUnknownSuite: a misspelt suite name is an error (exit 2) listing all
// six valid names.
func TestUnknownSuite(t *testing.T) {
	_, err := suiteNamed("grey")
	for _, name := range []string{"strategy", "adversary", "strategy-adversity", "gray", "weights", "paper"} {
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("err = %v, want it to list %s", err, name)
		}
		if _, err := suiteNamed(name); err != nil {
			t.Fatal(err)
		}
	}
	if status := run([]string{"suite", "grey"}, io.Discard); status != 2 {
		t.Fatalf("suite grey exited %d, want 2", status)
	}
}
