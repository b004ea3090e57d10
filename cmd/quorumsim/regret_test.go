package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quorumkit/internal/gate"
)

// TestRegretSuitesMatchBaselines runs the three deterministic regret suites
// and the weights suite in-process at their committed seed and steps: every
// verdict must hold, the rows must pass the gate against the committed BENCH
// file, a second same-seed run must be byte-identical to the first, and the
// gate must bite — a baseline whose first compared row (the gated mode's
// regret/op, held to 0.02; a weighted-vote value, held to 1e-9) is lowered
// by 0.05 or deleted must fail naming that row. (strategy, ~15 s a run, is
// held to the same contract by `make gate` only.)
func TestRegretSuitesMatchBaselines(t *testing.T) {
	for name, tc := range map[string]struct{ committed, gated string }{
		"adversary":          {"BENCH_adversary.json", "/on.regret_per_op"},
		"strategy-adversity": {"BENCH_strategy_adversity.json", "/resolve.regret_per_op"},
		"gray":               {"BENCH_gray.json", "/phi.regret_per_op"},
		"weights":            {"BENCH_weights.json", "star-100-avail.value"},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			committed := filepath.Join("..", "..", tc.committed)
			suite, err := suiteNamed(name)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
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
			}
			if !bytes.Equal(written[0], written[1]) {
				t.Fatal("two same-seed runs are not byte-identical")
			}
			if fails := gate.Check(file, committed); fails != nil {
				t.Fatalf("gate against %s: %q", committed, fails)
			}
			if want, err := os.ReadFile(committed); err != nil || !bytes.Equal(written[0], want) {
				t.Logf("%s is not byte-identical to this run (within tolerance; `make gate-update SUITE=%s` refreshes it)", committed, name)
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
			base.Rows[gated].Value -= 0.05
			check("baseline value lowered by 0.05")
			base.Rows = append(base.Rows[:gated:gated], base.Rows[gated+1:]...)
			check("gated row deleted from the baseline")
		})
	}
}

// TestUnknownSuite: a misspelt suite name is an error (exit 2) listing all
// five valid names.
func TestUnknownSuite(t *testing.T) {
	_, err := suiteNamed("grey")
	for _, name := range []string{"strategy", "adversary", "strategy-adversity", "gray", "weights"} {
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
