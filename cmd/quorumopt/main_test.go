package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors: a number no constructor accepts is refused right after
// flag parsing — one line naming the flag, the usage, exit 2, nothing on
// stdout — never a panic with a goroutine trace (which also exits 2).
func TestUsageErrors(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "quorumopt")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct{ args, want string }{
		{"-alpha 7", "quorumopt: -alpha 7 out of [0, 1]"},
		{"-alpha -0.5", "quorumopt: -alpha -0.5 out of [0, 1]"},
		{"-p 2", "quorumopt: -p 2 out of [0, 1]"},
		{"-r -1", "quorumopt: -r -1 out of [0, 1]"},
		{"-minwrite 2", "quorumopt: -minwrite 2 out of [0, 1]"},
		{"-n 0", "quorumopt: -n 0: -net complete needs at least 1 sites"},
		{"-net ring -n 2", "quorumopt: -n 2: -net ring needs at least 3 sites"},
		{"-net torus", `quorumopt: unknown -net "torus"`},
		{"-strategy -alpha 7", "quorumopt: -alpha 7 out of [0, 1]"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, strings.Fields(c.args)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("quorumopt %s: %v, want exit 2", c.args, err)
		}
		first, rest, _ := strings.Cut(stderr.String(), "\n")
		if first != c.want || !strings.HasPrefix(rest, "Usage of ") {
			t.Errorf("quorumopt %s: stderr starts %q, want %q then the usage", c.args, first, c.want)
		}
		if strings.Contains(stderr.String(), "goroutine") || stdout.Len() != 0 {
			t.Errorf("quorumopt %s: panicked or ran:\n%s%s", c.args, stdout.String(), stderr.String())
		}
	}
	if out, err := exec.Command(bin, "-n", "5", "-alpha", "1", "-p", "0").CombinedOutput(); err != nil {
		t.Fatalf("in-range boundary values refused: %v\n%s", err, out)
	}
}
