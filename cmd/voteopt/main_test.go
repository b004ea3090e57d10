package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors: a name nothing builds, or a number no constructor or
// search accepts, is refused right after flag parsing — one line naming the
// flag, the usage, exit 2, nothing on stdout — never a panic with a
// goroutine trace (which also exits 2) and never a run that fails with 1.
func TestUsageErrors(t *testing.T) {
	bin := build(t)
	for _, c := range []struct{ args, want string }{
		{"-n 0", "voteopt: -n 0: -net star needs at least 2 sites"},
		{"-n 1", "voteopt: -n 1: -net star needs at least 2 sites"},
		{"-n 1 -objective capacity", "voteopt: -n 1: -net star needs at least 2 sites"},
		{"-net ring -n 2", "voteopt: -n 2: -net ring needs at least 3 sites"},
		{"-net torus", `voteopt: unknown -net "torus"`},
		{"-objective speed", `voteopt: unknown -objective "speed"`},
		{"-search random", `voteopt: unknown -search "random"`},
		{"-alpha 7", "voteopt: -alpha 7 out of [0, 1]"},
		{"-p 2", "voteopt: -p 2 out of [0, 1]"},
		{"-r -1", "voteopt: -r -1 out of [0, 1]"},
		{"-max 0", "voteopt: -max 0: need at least 1 vote per site"},
		{"-budget -3", "voteopt: -budget -3: need 0 (n·max) or at least one vote per site"},
		{"-budget 3", "voteopt: -budget 3: need 0 (n·max) or at least one vote per site"},
		{"-scenarios 0 -search anneal", "voteopt: -scenarios 0: need at least 1"},
		{"-steps -1 -search anneal", "voteopt: -steps -1: need 0 (default) or more"},
		{"-restarts -1 -search anneal", "voteopt: -restarts -1: need 0 (default) or more"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, strings.Fields(c.args)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("voteopt %s: %v, want exit 2", c.args, err)
		}
		first, rest, _ := strings.Cut(stderr.String(), "\n")
		if first != c.want || !strings.HasPrefix(rest, "Usage of ") {
			t.Errorf("voteopt %s: stderr starts %q, want %q then the usage", c.args, first, c.want)
		}
		if strings.Contains(stderr.String(), "goroutine") || stdout.Len() != 0 {
			t.Errorf("voteopt %s: panicked or ran:\n%s%s", c.args, stdout.String(), stderr.String())
		}
	}
	if out, err := exec.Command(bin, "-n", "2", "-alpha", "1", "-p", "0", "-max", "1", "-budget", "2").CombinedOutput(); err != nil {
		t.Fatalf("in-range boundary values refused: %v\n%s", err, out)
	}
}

// TestPastExactLimitSamples: a topology whose n+m exceeds the exact
// enumeration's limit (complete 7: 7 + 21 = 28) is scored on the frozen
// sample by every search — it runs, it never panics.
func TestPastExactLimitSamples(t *testing.T) {
	bin := build(t)
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-net", "complete", "-n", "7", "-max", "1")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil || strings.Contains(stderr.String(), "goroutine") {
		t.Fatalf("voteopt -net complete -n 7 -max 1: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "objective avail (avail)") {
		t.Fatalf("want the sampled objective:\n%s", stdout.String())
	}
}

// build compiles voteopt into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "voteopt")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}
