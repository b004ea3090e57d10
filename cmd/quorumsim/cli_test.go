package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docs are the files whose quorumsim and voteopt invocations are the CLI's
// real traffic: what make, CI and a reader with the README run.
var docs = []string{
	"Makefile", ".github/workflows/ci.yml", "README.md", "DESIGN.md", "EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md", "cmd/quorumsim/main.go", "cmd/voteopt/main.go",
}

// invocation is one command line found in a doc.
type invocation struct {
	where string // file: line text
	tool  string // quorumsim | voteopt
	args  []string
}

var (
	// A run by path (`go run ./cmd/quorumsim …`, `/tmp/quorumsim …`), to
	// the end of the line; `go build` and `go test` lines name the package,
	// not a run.
	byPath = regexp.MustCompile(`^(.*)/(quorumsim|voteopt) (.*)$`)
	// An inline code span that starts with the tool, bare or by path, or
	// a usage line of a Go doc comment.
	inSpan  = regexp.MustCompile("`(?:[^` ]*/)?(quorumsim|voteopt) ([^`]*)`")
	inUsage = regexp.MustCompile(`^//\t(quorumsim|voteopt) (.*)$`)
	// A span opened on this line and closed on a later one would go
	// unchecked.
	openSpan = regexp.MustCompile("`(?:[^` ]*/)?(quorumsim|voteopt) [^`]*$")
)

// invocations extracts every quorumsim/voteopt command line from the docs.
func invocations(t *testing.T) []invocation {
	t.Helper()
	var out []invocation
	for _, doc := range docs {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		// Shell continuations join into one line.
		lines := strings.Split(strings.ReplaceAll(string(raw), "\\\n", " "), "\n")
		for _, line := range lines {
			where := doc + ": " + strings.TrimSpace(line)
			add := func(tool, rest string) {
				var args []string
				for _, tok := range strings.Fields(rest) {
					if strings.HasPrefix(tok, "#") || tok == "|" || tok == "&&" || strings.HasPrefix(tok, ">") {
						break
					}
					args = append(args, strings.TrimSuffix(tok, ";"))
					if strings.HasSuffix(tok, ";") {
						break
					}
				}
				out = append(out, invocation{where, tool, args})
			}
			if openSpan.MatchString(line) {
				t.Errorf("%s: code span wraps across lines; keep an invocation on one line so it is checked", where)
			}
			for _, m := range inSpan.FindAllStringSubmatch(line, -1) {
				add(m[1], m[2])
			}
			if m := inUsage.FindStringSubmatch(line); m != nil {
				add(m[1], m[2])
			}
			line = inSpan.ReplaceAllString(line, "")
			if m := byPath.FindStringSubmatch(line); m != nil &&
				!strings.Contains(m[1], "go build") && !strings.Contains(m[1], "go test") {
				add(m[2], m[3])
			}
		}
	}
	return out
}

// TestDocsInvocationsParse: the docs are the traffic. Every quorumsim and
// voteopt command line in the Makefile, CI, README, DESIGN, EXPERIMENTS,
// the verify skill and the two package comments must resolve to a command
// and parse against its flag set (parse only — nothing runs), so a renamed
// flag cannot strand a documented invocation.
func TestDocsInvocationsParse(t *testing.T) {
	voteopt := filepath.Join(t.TempDir(), "voteopt")
	if out, err := exec.Command("go", "build", "-o", voteopt, "../voteopt").CombinedOutput(); err != nil {
		t.Fatalf("go build ../voteopt: %v\n%s", err, out)
	}
	seen := map[string]int{}
	for _, inv := range invocations(t) {
		seen[inv.tool]++
		var stderr bytes.Buffer
		if inv.tool == "voteopt" {
			// A trailing -h makes the flat flag set parse everything
			// before it and exit 0 without running.
			cmd := exec.Command(voteopt, append(slices.Clone(inv.args), "-h")...)
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				t.Errorf("%s\n  voteopt %s: %v: %s", inv.where, strings.Join(inv.args, " "), err, firstLine(&stderr))
			}
			continue
		}
		if exec, status := parse(inv.args, &stderr); exec == nil && status != 0 {
			t.Errorf("%s\n  quorumsim %s: exit %d: %s", inv.where, strings.Join(inv.args, " "), status, firstLine(&stderr))
		} else if exec != nil && inv.args[0] == "suite" && !strings.HasPrefix(inv.args[1], "$") {
			if _, err := suiteNamed(inv.args[1]); err != nil {
				t.Errorf("%s\n  %v", inv.where, err)
			}
		}
	}
	// The extractor itself must keep finding the traffic.
	if seen["quorumsim"] < 30 || seen["voteopt"] < 8 {
		t.Fatalf("found %d quorumsim and %d voteopt invocations in the docs; the extractor has gone blind", seen["quorumsim"], seen["voteopt"])
	}
}

// firstLine is the error a failed parse printed, without the usage after it.
func firstLine(b *bytes.Buffer) string {
	line, _, _ := strings.Cut(b.String(), "\n")
	return line
}

// TestCommandTable pins the CLI surface: the commands, each command's
// exact flag set as `<cmd> -h` prints it, the usage errors, and the
// number of distinct flag names.
func TestCommandTable(t *testing.T) {
	const shared = " metrics pprof seed trace"
	want := map[string]string{
		"measure":     "alpha batch ci maxbatches minbatches paper qr topology warmup" + shared,
		"study":       "alphas batch chords ci maxbatches minbatches parallel sites warmup" + shared,
		"chaos":       "async disk mix ops sites" + shared,
		"churn":       "alpha ops seeds sites" + shared,
		"suite":       "baseline out steps" + shared,
		"weightcheck": "alpha sites" + shared,
		"hedge":       "steps" + shared,
	}
	flagLine := regexp.MustCompile(`(?m)^  -(\w+)`)
	distinct := map[string]bool{}
	for _, cmd := range commands {
		var help bytes.Buffer
		if status := run([]string{cmd.name, "-h"}, &help); status != 0 {
			t.Errorf("%s -h exited %d", cmd.name, status)
		}
		var got []string
		for _, m := range flagLine.FindAllStringSubmatch(help.String(), -1) {
			got = append(got, m[1])
			distinct[m[1]] = true
		}
		slices.Sort(got)
		wantFlags := strings.Fields(want[cmd.name])
		slices.Sort(wantFlags)
		if !slices.Equal(got, wantFlags) {
			t.Errorf("%s -h lists %v, want %v", cmd.name, got, wantFlags)
		}
	}
	if len(commands) != len(want) {
		t.Errorf("%d commands, want %d", len(commands), len(want))
	}
	if len(distinct) > 26 {
		t.Errorf("%d distinct flag names, want at most 26", len(distinct))
	}

	for _, tc := range []struct {
		args   string
		status int
		stderr string // must appear on stderr
	}{
		{"", 2, "usage: quorumsim <command>"},
		{"help", 0, "usage: quorumsim <command>"},
		{"simulate", 2, `unknown command "simulate"`},
		{"-chaos -ops 100", 2, `unknown command "-chaos"`},
		{"chaos -nodes 5", 2, "flag provided but not defined: -nodes"},
		{"chaos all", 2, `unexpected argument "all"`},
		{"suite", 2, "missing <name>"},
		{"suite -seed 1", 2, "missing <name>"},
		{"suite gray extra", 2, `unexpected argument "extra"`},
		{"measure -qr many", 2, "invalid value"},
		// Numbers no constructor accepts are usage errors, not panics.
		{"churn -sites 2", 2, "-sites must be at least 3"},
		{"churn -sites 0", 2, "-sites must be at least 3"},
		{"churn -alpha 7", 2, "-alpha must be in [0, 1]"},
		{"churn -seeds 0", 2, "-seeds must be at least 1"},
		{"churn -ops 0", 2, "-ops must be at least 1"},
		{"chaos -sites 0", 2, "-sites must be at least 2"},
		{"hedge -steps 0", 2, "-steps must be at least 2"},
		{"suite gray -steps -5", 2, "-steps must be 0 or at least 2"},
		{"weightcheck -sites 1", 2, "-sites must be at least 2"},
		{"measure -topology 99", 2, "-topology must be one of the paper's chord counts"},
		{"measure -alpha 7", 2, "-alpha must be in [0, 1]"},
	} {
		var stderr bytes.Buffer
		if status := run(strings.Fields(tc.args), &stderr); status != tc.status || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("quorumsim %s: exit %d, want %d with %q on stderr:\n%s", tc.args, status, tc.status, tc.stderr, &stderr)
		}
		if !strings.Contains(stderr.String(), "usage: quorumsim") || strings.Contains(stderr.String(), "goroutine") {
			t.Errorf("quorumsim %s: no usage, or a stack trace, on stderr:\n%s", tc.args, &stderr)
		}
	}
	var list bytes.Buffer
	run([]string{"simulate"}, &list)
	for _, cmd := range commands {
		if !strings.Contains(list.String(), "\n  "+cmd.name+" ") {
			t.Errorf("unknown-command listing omits %s:\n%s", cmd.name, &list)
		}
	}
}
