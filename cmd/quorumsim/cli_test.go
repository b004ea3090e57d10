package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"quorumkit/internal/gate"
)

// docs are the files whose quorumsim invocations are the CLI's real
// traffic: what make, CI and a reader with the README run.
var docs = []string{
	"Makefile", ".github/workflows/ci.yml", "README.md", "DESIGN.md", "EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md", "cmd/quorumsim/main.go",
}

// invocation is one command line found in a doc.
type invocation struct {
	where string // file: line text
	tool  string // quorumsim, or a binary that no longer exists
	args  []string
	// refused marks a usage-error probe: a line that captures stderr
	// (`2>`) must be refused with exit 2.
	refused bool
}

// tools are quorumsim and the binaries its commands replaced: a doc line
// still running one of those is stale.
const tools = `(quorumsim|quorumopt|voteopt|modelcheck)`

var (
	// A run by path (`go run ./cmd/quorumsim …`, `/tmp/quorumsim …`), to
	// the end of the line; `go build` and `go test` lines name the package,
	// not a run.
	byPath = regexp.MustCompile(`^(.*)/` + tools + ` (.*)$`)
	// An inline code span that starts with the tool, bare or by path, or
	// a usage line of a Go doc comment.
	inSpan  = regexp.MustCompile("`(?:[^` ]*/)?" + tools + " ([^`]*)`")
	inUsage = regexp.MustCompile(`^//\t` + tools + ` (.*)$`)
	// A span opened on this line and closed on a later one would go
	// unchecked.
	openSpan = regexp.MustCompile("`(?:[^` ]*/)?" + tools + " [^`]*$")
)

// invocations extracts every command line from the docs.
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
					if strings.HasPrefix(tok, "#") || tok == "|" || tok == "&&" || strings.Contains(tok, ">") {
						break
					}
					args = append(args, strings.TrimSuffix(tok, ";"))
					if strings.HasSuffix(tok, ";") {
						break
					}
				}
				out = append(out, invocation{where, tool, args, strings.Contains(line, " 2>")})
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

// TestDocsInvocationsParse: the docs are the traffic. Every quorumsim
// command line in the Makefile, CI, README, DESIGN, EXPERIMENTS, the verify
// skill and the package comment must resolve to a command and parse
// against its flag set (parse only — nothing runs), so a renamed flag
// cannot strand a documented invocation; a usage-error probe, which
// captures stderr, must be refused. No line may still run a binary whose
// work is now a quorumsim command.
func TestDocsInvocationsParse(t *testing.T) {
	found := 0
	for _, inv := range invocations(t) {
		if inv.tool != "quorumsim" {
			t.Errorf("%s\n  %s is no longer a binary; its work is a quorumsim command", inv.where, inv.tool)
			continue
		}
		found++
		var stderr bytes.Buffer
		exec, status := parse(inv.args, &stderr)
		switch {
		case inv.refused:
			if exec != nil || status != 2 {
				t.Errorf("%s\n  quorumsim %s: exit %d, want a usage error", inv.where, strings.Join(inv.args, " "), status)
			}
		case exec == nil && status != 0:
			t.Errorf("%s\n  quorumsim %s: exit %d: %s", inv.where, strings.Join(inv.args, " "), status, firstLine(&stderr))
		case exec != nil && inv.args[0] == "suite" && !strings.HasPrefix(inv.args[1], "$"):
			if _, err := suiteNamed(inv.args[1]); err != nil {
				t.Errorf("%s\n  %v", inv.where, err)
			}
		}
	}
	// The extractor itself must keep finding the traffic.
	if found < 38 {
		t.Fatalf("found %d quorumsim invocations in the docs; the extractor has gone blind", found)
	}
}

// TestExperimentsCitesRows: EXPERIMENTS.md cites BENCH_paper.json instead of
// copying it. Every inline code span that is a row name of a paper row
// group (`t16/a0.75/opt_A`) must name a committed row, and a value written
// beside the name (`t16/a0.75/opt_A = 0.8729`) must equal the committed
// value at its printed precision. The check must also catch one digit
// changed in a copy of the document.
func TestExperimentsCitesRows(t *testing.T) {
	base, err := gate.Read(filepath.Join("..", "..", "BENCH_paper.json"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	cited, fails := citedRows(string(doc), base)
	for _, f := range fails {
		t.Errorf("EXPERIMENTS.md: %s", f)
	}
	if cited < 100 {
		t.Fatalf("found %d row citations in EXPERIMENTS.md; the extractor has gone blind", cited)
	}
	// Flip the last digit of the first cited value: 0↔1, 2↔3, ….
	last := regexp.MustCompile("`[^`]+ = [0-9.]*([0-9])`").FindSubmatchIndex(doc)[2]
	mutated := bytes.Clone(doc)
	mutated[last] ^= 1
	if _, fails := citedRows(string(mutated), base); len(fails) != 1 {
		t.Fatalf("one digit changed in a cited value: %d failures %q, want 1", len(fails), fails)
	}
}

// citedRows checks every row citation in doc against f and returns how many
// it found and every mismatch.
func citedRows(doc string, f gate.File) (cited int, fails []string) {
	rows, groups := map[string]float64{}, map[string]bool{}
	for _, r := range f.Rows {
		rows[r.Name] = r.Value
		group, _, _ := strings.Cut(r.Name, "/")
		groups[group] = true
	}
	rowName := regexp.MustCompile(`^[A-Za-z0-9_.]+(/[A-Za-z0-9_.]+)+$`)
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(doc, -1) {
		name, printed, valued := strings.Cut(m[1], " = ")
		group, _, _ := strings.Cut(name, "/")
		if !rowName.MatchString(name) || !groups[group] {
			continue
		}
		cited++
		v, ok := rows[name]
		switch {
		case !ok:
			fails = append(fails, fmt.Sprintf("%s is not a row of the committed file", name))
		case valued:
			_, frac, _ := strings.Cut(printed, ".")
			if got := strconv.FormatFloat(v, 'f', len(frac), 64); got != printed {
				fails = append(fails, fmt.Sprintf("%s = %s, committed %s", name, printed, got))
			}
		}
	}
	return cited, fails
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
		"optimize":    "alpha curve minwrite net omega p r sites sweep" + shared,
		"strategy":    "f frs gap json loadlimit objective sites" + shared,
		"votes":       "alpha budget max net objective p r restarts scenarios search sites steps" + shared,
		"check":       "maxstates net sites versioncap" + shared,
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
	if len(distinct) != 45 {
		t.Errorf("%d distinct flag names, want 45", len(distinct))
	}

	usageErrors(t, []usageCase{
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
	})
	var list bytes.Buffer
	run([]string{"simulate"}, &list)
	for _, cmd := range commands {
		if !strings.Contains(list.String(), "\n  "+cmd.name+" ") {
			t.Errorf("unknown-command listing omits %s:\n%s", cmd.name, &list)
		}
	}
}

// usageCase is one invocation that must be refused (or, for help, listed)
// with a status and a message on stderr.
type usageCase struct {
	args   string
	status int
	stderr string // must appear on stderr
}

// usageErrors runs each case in-process: it must exit with its status,
// print its message and the usage, and no stack trace.
func usageErrors(t *testing.T, cases []usageCase) {
	t.Helper()
	for _, tc := range cases {
		var stderr bytes.Buffer
		if status := run(strings.Fields(tc.args), &stderr); status != tc.status || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("quorumsim %s: exit %d, want %d with %q on stderr:\n%s", tc.args, status, tc.status, tc.stderr, &stderr)
		}
		if !strings.Contains(stderr.String(), "usage: quorumsim") || strings.Contains(stderr.String(), "goroutine") {
			t.Errorf("quorumsim %s: no usage, or a stack trace, on stderr:\n%s", tc.args, &stderr)
		}
	}
}

// TestOptimizeUsageErrors: the analytic calculator's and the strategy
// solver's out-of-range and unknown inputs are usage errors.
func TestOptimizeUsageErrors(t *testing.T) {
	usageErrors(t, []usageCase{
		{"optimize -alpha 7", 2, "-alpha must be in [0, 1]"},
		{"optimize -alpha -0.5", 2, "-alpha must be in [0, 1]"},
		{"optimize -p 2", 2, "-p must be in [0, 1]"},
		{"optimize -r -1", 2, "-r must be in [0, 1]"},
		{"optimize -minwrite 2", 2, "-minwrite must be in [0, 1]"},
		{"optimize -sites 0", 2, "-sites must be at least 1 for -net complete"},
		{"optimize -net ring -sites 2", 2, "-sites must be at least 3 for -net ring"},
		{"optimize -net torus", 2, "-net must be one of ring | complete | bus-kills | bus-indep"},
		// strategy reads none of optimize's analytic flags.
		{"strategy -alpha 7", 2, "flag provided but not defined: -alpha"},
		{"strategy -objective speed", 2, "-objective must be one of capacity | resilient | latency"},
		{"strategy -sites 2", 2, "-sites must be 0 (the case study) or at least 3"},
		{"strategy -f -1", 2, "-f must be at least 0"},
		{"strategy -gap -1", 2, "-gap must be in [0, 1]"},
		{"strategy -gap NaN", 2, "-gap must be in [0, 1]"},
		{"strategy -loadlimit -1", 2, "-loadlimit must be at least 0"},
	})
}

// TestVotesUsageErrors: the vote search's out-of-range and unknown
// inputs are usage errors.
func TestVotesUsageErrors(t *testing.T) {
	usageErrors(t, []usageCase{
		{"votes -sites 0", 2, "-sites must be at least 2 for -net star"},
		{"votes -sites 1", 2, "-sites must be at least 2 for -net star"},
		{"votes -sites 1 -objective capacity", 2, "-sites must be at least 2 for -net star"},
		{"votes -net ring -sites 2", 2, "-sites must be at least 3 for -net ring"},
		{"votes -net torus", 2, "-net must be one of star | path | ring | complete | grid2x3"},
		{"votes -objective speed", 2, "-objective must be one of avail | capacity"},
		{"votes -search random", 2, "-search must be one of hillclimb | exhaustive | anneal"},
		{"votes -alpha 7", 2, "-alpha must be in [0, 1]"},
		{"votes -p 2", 2, "-p must be in [0, 1]"},
		{"votes -r -1", 2, "-r must be in [0, 1]"},
		{"votes -max 0", 2, "-max must be at least 1"},
		{"votes -budget -3", 2, "-budget must be 0 (n·max) or at least one vote per site"},
		{"votes -budget 3", 2, "-budget must be 0 (n·max) or at least one vote per site"},
		{"votes -scenarios 0 -search anneal", 2, "-scenarios must be at least 1"},
		{"votes -steps -1 -search anneal", 2, "-steps must be at least 0"},
		{"votes -restarts -1 -search anneal", 2, "-restarts must be at least 0"},
	})
}

// TestCheckUsageErrors: the model checker's out-of-range and unknown
// inputs are usage errors.
func TestCheckUsageErrors(t *testing.T) {
	usageErrors(t, []usageCase{
		{"check -sites 0", 2, "-sites must be at least 2 for -net path"},
		{"check -sites 1", 2, "-sites must be at least 2 for -net path"},
		{"check -sites -4 -net complete", 2, "-sites must be at least 2 for -net complete"},
		{"check -net star -sites 1", 2, "-sites must be at least 2 for -net star"},
		{"check -net ring -sites 2", 2, "-sites must be at least 3 for -net ring"},
		{"check -net torus", 2, "-net must be one of star | path | ring | complete | grid2x3"},
		{"check -maxstates 0", 2, "-maxstates must be at least 1"},
		{"check -versioncap -1", 2, "-versioncap must be at least 0"},
	})
}

// TestCommandRuns runs commands in-process at the edges of their flag
// ranges and on inputs that once failed: each must exit with its status
// and print what it promises — nothing out of range refused, no panic.
func TestCommandRuns(t *testing.T) {
	for _, tc := range []struct {
		args           string
		status         int
		stdout, stderr string // must appear on stdout and stderr
	}{
		// In-range boundary values are accepted.
		{"optimize -sites 5 -alpha 1 -p 0", 0, "optimal: (q_r=", ""},
		{"votes -sites 2 -alpha 1 -p 0 -max 1 -budget 2", 0, "hillclimb votes [1 1]", ""},
		{"check -net ring -sites 3", 0, "both invariants hold", ""},
		// A topology past the exact enumeration's limit (complete 7:
		// 7 + 21 = 28 sites and links) is scored on the frozen sample.
		{"votes -net complete -sites 7 -max 1", 0, "objective avail (avail)", ""},
		// The capacity objective scores a one-vote candidate instead of
		// aborting the search that reaches it.
		{"votes -objective capacity -sites 4 -max 4 -search exhaustive", 0, "exhaustive votes [1 1 1 0]", ""},
		{"votes -objective capacity -sites 3 -max 4 -search anneal", 0, "all certified: true", ""},
		{"votes -objective capacity -sites 2 -max 2", 0, "hillclimb votes [1 1]", ""},
		// A spent state budget is inconclusive, not a violation.
		{"check -net path -sites 4 -maxstates 10", 1, "exploring path", "inconclusive: not verified; the state budget (-maxstates 10)"},
		// An infeasible request is one JSON object on stderr.
		{"strategy -objective resilient -f 5 -sites 9", 1, "", `"infeasible":true`},
	} {
		status, stdout, stderr := runCaptured(t, strings.Fields(tc.args))
		if status != tc.status || !strings.Contains(stdout, tc.stdout) || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("quorumsim %s: exit %d, want %d with %q on stdout and %q on stderr:\n%s%s",
				tc.args, status, tc.status, tc.stdout, tc.stderr, stdout, stderr)
		}
		if strings.Contains(stderr, "VIOLATION") || strings.Contains(stderr, "goroutine") {
			t.Errorf("quorumsim %s: a violation or a stack trace on stderr:\n%s", tc.args, stderr)
		}
	}
}

// TestTraceTruncationReported: a run whose trace outgrows the ring says on
// stderr how many events the artifact kept and how many it lost — the
// file's length and its first sequence number — and a run whose trace fits
// prints nothing there.
func TestTraceTruncationReported(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	for _, tc := range []struct {
		ops   string
		wraps bool
	}{{"1500", true}, {"20", false}} {
		status, _, stderr := runCaptured(t, []string{"chaos", "-mix", "drop", "-ops", tc.ops, "-seed", "1", "-trace", trace})
		b, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		var first struct{ Seq uint64 }
		if err := json.Unmarshal(b[:bytes.IndexByte(b, '\n')], &first); err != nil {
			t.Fatal(err)
		}
		want := ""
		if first.Seq > 0 {
			want = fmt.Sprintf("trace: ring full, kept the last %d events and dropped %d earlier ones\n", bytes.Count(b, []byte("\n")), first.Seq)
		}
		if status != 0 || stderr != want || tc.wraps != (first.Seq > 0) {
			t.Errorf("chaos -ops %s: exit %d, trace from seq %d, stderr %q; want exit 0, wrapped %v, stderr %q",
				tc.ops, status, first.Seq, stderr, tc.wraps, want)
		}
	}
}

// runCaptured runs one invocation in-process with os.Stdout and os.Stderr
// redirected to files, and returns its exit status and both outputs.
func runCaptured(t *testing.T, args []string) (status int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	files := make([]*os.File, 2)
	for i := range files {
		f, err := os.Create(filepath.Join(dir, strconv.Itoa(i)))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files[i] = f
	}
	stdoutWas, stderrWas := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = files[0], files[1]
	status = run(args, files[1])
	os.Stdout, os.Stderr = stdoutWas, stderrWas
	out := make([]string, 2)
	for i, f := range files {
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return status, out[0], out[1]
}
