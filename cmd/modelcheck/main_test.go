package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors: a site count no topology constructor accepts is refused
// right after flag parsing — one line naming the flag, the usage, exit 2,
// nothing on stdout — never a panic with a goroutine trace (which also
// exits 2).
func TestUsageErrors(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "modelcheck")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct{ args, want string }{
		{"-n 0", "modelcheck: -n 0: -net path needs at least 2 sites"},
		{"-n 1", "modelcheck: -n 1: -net path needs at least 2 sites"},
		{"-n -4 -net complete", "modelcheck: -n -4: -net complete needs at least 2 sites"},
		{"-net star -n 1", "modelcheck: -n 1: -net star needs at least 2 sites"},
		{"-net ring -n 2", "modelcheck: -n 2: -net ring needs at least 3 sites"},
		{"-net torus", `modelcheck: unknown -net "torus"`},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, strings.Fields(c.args)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("modelcheck %s: %v, want exit 2", c.args, err)
		}
		first, rest, _ := strings.Cut(stderr.String(), "\n")
		if first != c.want || !strings.HasPrefix(rest, "Usage of ") {
			t.Errorf("modelcheck %s: stderr starts %q, want %q then the usage", c.args, first, c.want)
		}
		if strings.Contains(stderr.String(), "goroutine") || stdout.Len() != 0 {
			t.Errorf("modelcheck %s: panicked or ran:\n%s%s", c.args, stdout.String(), stderr.String())
		}
	}
	if out, err := exec.Command(bin, "-net", "ring", "-n", "3").CombinedOutput(); err != nil {
		t.Fatalf("smallest ring refused: %v\n%s", err, out)
	}
}
