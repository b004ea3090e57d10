// Package gate is the one mechanism every committed BENCH_*.json goes
// through: one flat row type, one file shape, one writer and one
// comparator. A suite measures whatever it measures and emits rows; which
// rows are held to a tolerance, in which direction and by how much is data
// on the row, not a function per suite (DESIGN §19).
package gate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Row is one named figure of a suite. A row is gated when it declares a
// direction (Better: compared against the baseline's row of the same name
// within AbsTol + RelTol·|baseline|) or an absolute bound (Min/Max,
// inclusive: checked on the run and on the baseline file). Everything
// else is informational. Bools are 0/1; forensics (vote vectors, hashes,
// error text) ride in Note. Every committed row is a pure function of the
// code and the seed: wall-clock figures are printed by the suites, never
// written (timings are bench/'s per-layer metrics).
type Row struct {
	Name   string   `json:"name"`
	Value  float64  `json:"value"`
	Unit   string   `json:"unit,omitempty"`
	Better string   `json:"better,omitempty"` // lower | higher | equal | ""
	AbsTol float64  `json:"abs_tol,omitempty"`
	RelTol float64  `json:"rel_tol,omitempty"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
	Note   string   `json:"note,omitempty"`
}

// File is the one BENCH_*.json shape. Seed and Steps identify the
// stimulus: a baseline only gates a run of the same suite, seed and steps.
type File struct {
	Suite string `json:"suite"`
	Seed  uint64 `json:"seed"`
	Steps int    `json:"steps"`
	Rows  []Row  `json:"rows"`
}

// Bound returns a Min/Max value.
func Bound(v float64) *float64 { return &v }

// Bool is the 0/1 row value of b.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Write writes f to path, one row per line so a regenerated baseline
// diffs row by row. The bytes are a pure function of f.
func Write(path string, f File) error {
	head, err := json.Marshal(struct {
		Suite string `json:"suite"`
		Seed  uint64 `json:"seed"`
		Steps int    `json:"steps"`
	}{f.Suite, f.Seed, f.Steps})
	if err != nil {
		return err
	}
	var b bytes.Buffer
	b.Write(head[:len(head)-1])
	b.WriteString(`,"rows":[`)
	for i, r := range f.Rows {
		line, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("row %s: %w", r.Name, err)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
		b.Write(line)
	}
	b.WriteString("\n]}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// Read parses a file written by Write.
func Read(path string) (File, error) {
	var f File
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Check returns every way cur fails its gates, in sorted row order; nil
// means it passes. Min/Max bounds are always checked on cur. With a
// baselinePath the baseline must carry the same suite, seed and steps;
// a gated row missing on either side fails; bounds are re-checked on the
// baseline's own values (a committed file that no longer meets the bar
// fails loudly); and every row with a direction is compared — a baseline
// value of 0 there fails, since 0 is what an absent field reads as. The
// run's rows carry the authoritative thresholds.
func Check(cur File, baselinePath string) []string {
	var base File
	haveBase := baselinePath != ""
	if haveBase {
		var err error
		if base, err = Read(baselinePath); err != nil {
			return []string{err.Error()}
		}
		if base.Suite != cur.Suite || base.Seed != cur.Seed || base.Steps != cur.Steps {
			return []string{fmt.Sprintf("baseline %s (suite=%q seed=%d steps=%d) does not match run (suite=%q seed=%d steps=%d)",
				baselinePath, base.Suite, base.Seed, base.Steps, cur.Suite, cur.Seed, cur.Steps)}
		}
	}

	var fails []string
	failf := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	dup := map[string]string{}
	index := func(side string, f File) map[string]Row {
		m := make(map[string]Row, len(f.Rows))
		for _, r := range f.Rows {
			if _, ok := m[r.Name]; ok {
				dup[r.Name] = side
			}
			m[r.Name] = r
		}
		return m
	}
	curRows, baseRows := index("this run", cur), index("baseline", base)
	names := make([]string, 0, len(curRows))
	for name := range curRows {
		names = append(names, name)
	}
	for name := range baseRows {
		if _, ok := curRows[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	for _, name := range names {
		c, inCur := curRows[name]
		b, inBase := baseRows[name]
		if side, ok := dup[name]; ok {
			failf("%s: duplicate row in %s", name, side)
		}
		spec := c
		if !inCur {
			spec = b
		}
		if spec.Better == "" && spec.Min == nil && spec.Max == nil {
			continue
		}
		if !inCur {
			failf("%s: in the baseline but missing from this run", name)
		} else {
			spec.bounds(failf, "", c)
		}
		if !haveBase {
			continue
		}
		if !inBase {
			failf("%s: missing from the baseline", name)
			continue
		}
		spec.bounds(failf, "baseline ", b)
		if !inCur || spec.Better == "" {
			continue
		}
		slack := spec.AbsTol + spec.RelTol*math.Abs(b.Value)
		var worse bool
		switch spec.Better {
		case "lower":
			worse = !(c.Value <= b.Value+slack)
		case "higher":
			worse = !(c.Value >= b.Value-slack)
		case "equal":
			slack = spec.AbsTol + spec.RelTol*math.Max(math.Abs(c.Value), math.Abs(b.Value))
			worse = !(math.Abs(c.Value-b.Value) <= slack)
		default:
			failf("%s: unknown better=%q", name, spec.Better)
			continue
		}
		switch {
		case b.Value == 0:
			failf("%s: baseline value is 0 (absent?), cannot gate %g against it", name, c.Value)
		case worse:
			failf("%s: %g vs baseline %g (better=%s, ±%g allowed)", name, c.Value, b.Value, spec.Better, slack)
		}
	}
	return fails
}

// bounds reports r's Min/Max violations by v's value. The conditions are
// written so that a NaN never passes.
func (r Row) bounds(failf func(string, ...any), side string, v Row) {
	note := ""
	if v.Note != "" {
		note = " (" + v.Note + ")"
	}
	if r.Min != nil && !(v.Value >= *r.Min) {
		failf("%s%s: %g below min %g%s", side, r.Name, v.Value, *r.Min, note)
	}
	if r.Max != nil && !(v.Value <= *r.Max) {
		failf("%s%s: %g above max %g%s", side, r.Name, v.Value, *r.Max, note)
	}
}

// Finish is the tail every suite command shares: check f (against baseline
// when given), write it to out (when given — after the check, so out may
// name the baseline), print the outcome, and return the exit status —
// 0 pass, 1 gate failure, 2 I/O failure.
func Finish(f File, out, baseline string) int {
	fails := Check(f, baseline)
	if out != "" {
		if err := Write(out, f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Printf("wrote %s (%d rows)\n", out, len(f.Rows))
	}
	for _, msg := range fails {
		fmt.Fprintf(os.Stderr, "GATE FAIL [%s]: %s\n", f.Suite, msg)
	}
	if len(fails) > 0 {
		return 1
	}
	if baseline == "" {
		baseline = "its own bounds"
	}
	fmt.Printf("gate %s vs %s: OK\n", f.Suite, baseline)
	return 0
}
