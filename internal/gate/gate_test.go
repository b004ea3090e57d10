package gate

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBase(t *testing.T, f File) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.json")
	if err := Write(path, f); err != nil {
		t.Fatal(err)
	}
	return path
}

func file(rows ...Row) File { return File{Suite: "s", Seed: 1, Steps: 10, Rows: rows} }

// TestCheck pins the comparator: each case is a run, a baseline, and the
// row names (in order) the failures must name.
func TestCheck(t *testing.T) {
	lower := func(v float64) Row { return Row{Name: "r", Value: v, Better: "lower", AbsTol: 0.5} }
	lowerRel := func(v float64) Row { return Row{Name: "r", Value: v, Better: "lower", RelTol: 0.25} }
	higher := func(v float64) Row { return Row{Name: "r", Value: v, Better: "higher", RelTol: 0.25} }
	equal := func(v float64) Row { return Row{Name: "r", Value: v, Better: "equal", RelTol: 0.25} }
	bounded := func(v float64) Row { return Row{Name: "b", Value: v, Min: Bound(1), Max: Bound(2)} }
	info := func(name string, v float64) Row { return Row{Name: name, Value: v} }

	cases := []struct {
		name      string
		cur, base File
		want      []string // substrings, one per failure, in order
	}{
		{"worse than abs tolerance fails", file(lower(1.75)), file(lower(1)), []string{"r: 1.75 vs baseline 1"}},
		{"exactly at abs tolerance passes", file(lower(1.5)), file(lower(1)), nil},
		{"worse than rel tolerance fails", file(lowerRel(2.75)), file(lowerRel(2)), []string{"r:"}},
		{"exactly at rel tolerance passes", file(lowerRel(2.5)), file(lowerRel(2)), nil},
		{"improvement passes", file(lower(0.1)), file(lower(1)), nil},
		{"higher: drop past tolerance fails", file(higher(1.25)), file(higher(2)), []string{"r:"}},
		{"higher: at tolerance passes, gain passes", file(higher(1.5)), file(higher(2)), nil},
		{"equal fails above", file(equal(4.25)), file(equal(3)), []string{"r:"}},
		{"equal fails below", file(equal(3)), file(equal(4.25)), []string{"r:"}},
		{"equal passes at tolerance", file(equal(4)), file(equal(3)), nil},
		{"gated row missing from the run", file(info("i", 1)), file(lower(1), info("i", 1)), []string{"r: in the baseline but missing"}},
		{"gated row missing from the baseline", file(lower(1), info("i", 1)), file(info("i", 1)), []string{"r: missing from the baseline"}},
		{"informational rows may come and go", file(info("i", 1)), file(info("j", 2)), nil},
		{"seed mismatch", File{Suite: "s", Seed: 2, Steps: 10}, file(), []string{"does not match"}},
		{"steps mismatch", File{Suite: "s", Seed: 1, Steps: 11}, file(), []string{"does not match"}},
		{"suite mismatch", File{Suite: "other", Seed: 1, Steps: 10}, file(), []string{"does not match"}},
		{"zero baseline on a compared row", file(lower(0.1)), file(lower(0)), []string{"r: baseline value is 0"}},
		{"min on the run", file(bounded(0.5)), file(bounded(1)), []string{"b: 0.5 below min 1"}},
		{"max on the run", file(bounded(2.5)), file(bounded(2)), []string{"b: 2.5 above max 2"}},
		{"min on the baseline", file(bounded(1)), file(bounded(0.5)), []string{"baseline b: 0.5 below min 1"}},
		{"max on the baseline", file(bounded(2)), file(bounded(2.5)), []string{"baseline b: 2.5 above max 2"}},
		{"NaN never passes", file(bounded(math.NaN()), lower(math.NaN())), file(bounded(1), lower(1)), []string{"b: NaN below min", "b: NaN above max", "r: NaN vs baseline 1"}},
		{"unknown direction", file(Row{Name: "r", Value: 1, Better: "sideways"}), file(lower(1)), []string{"unknown better"}},
		{"duplicate row", file(info("i", 1), info("i", 2)), file(info("i", 1)), []string{"i: duplicate row in this run"}},
		{
			"every failure, in sorted row order",
			file(Row{Name: "z", Value: 9, Better: "lower"}, bounded(0), Row{Name: "m", Value: 1, Max: Bound(0)}, lower(1)),
			file(Row{Name: "z", Value: 1}, bounded(1), Row{Name: "a", Value: 1, Better: "lower"}, Row{Name: "m", Value: 0}),
			[]string{"a: in the baseline but missing", "b: 0 below min", "m: 1 above max", "r: missing from the baseline", "z: 9 vs baseline 1"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Check(tc.cur, writeBase(t, tc.base))
			if len(got) != len(tc.want) {
				t.Fatalf("got %d failures %q, want %d %q", len(got), got, len(tc.want), tc.want)
			}
			for i := range got {
				if !strings.Contains(got[i], tc.want[i]) {
					t.Errorf("failure %d = %q, want it to contain %q", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestCheckWithoutBaseline: an empty path checks the run's own bounds and
// nothing else; an unreadable or malformed baseline is itself a failure.
func TestCheckWithoutBaseline(t *testing.T) {
	cur := file(Row{Name: "r", Value: 9, Better: "lower"}, Row{Name: "b", Value: 3, Max: Bound(2)})
	if got := Check(cur, ""); len(got) != 1 || !strings.Contains(got[0], "b: 3 above max 2") {
		t.Fatalf("bounds-only check = %q", got)
	}
	if got := Check(cur, filepath.Join(t.TempDir(), "absent.json")); len(got) != 1 {
		t.Fatalf("absent baseline = %q", got)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := Check(cur, bad); len(got) != 1 || !strings.Contains(got[0], "bad.json") {
		t.Fatalf("malformed baseline = %q", got)
	}
}

// TestWriteReadRoundTrip: Write → Read → Write is byte-stable, one row per
// line, and unwritable values are an error rather than a corrupt file.
func TestWriteReadRoundTrip(t *testing.T) {
	f := File{Suite: "s", Seed: 1<<63 + 1, Steps: 7, Rows: []Row{
		{Name: "a/b.c", Value: -1.199040866595169e-14, Unit: "ops", Better: "lower", AbsTol: 0.02, RelTol: 1e-9,
			Min: Bound(-1), Max: Bound(0.050000001), Note: `votes [1 2] "φ" <x>`},
		{Name: "d", Value: 3870975160.1133685},
	}}
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "1.json"), filepath.Join(dir, "2.json")
	if err := Write(p1, f); err != nil {
		t.Fatal(err)
	}
	back, err := Read(p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(p2, back); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("round trip drifted:\n%s\n%s", b1, b2)
	}
	if lines := bytes.Count(b1, []byte("\n")); lines != len(f.Rows)+2 {
		t.Fatalf("want one line per row plus head and tail, got %d lines:\n%s", lines, b1)
	}
	if fails := Check(f, p1); fails != nil {
		t.Fatalf("a file fails against itself: %q", fails)
	}
	f.Rows[1].Value = math.NaN()
	if err := Write(p1, f); err == nil {
		t.Fatal("NaN was written")
	}
}

// TestFinishStatus: 0 on a pass, 1 on a gate failure (the file is still
// written, and out may name the baseline), 2 when out cannot be written.
func TestFinishStatus(t *testing.T) {
	good := file(Row{Name: "r", Value: 1, Better: "lower"})
	base := writeBase(t, good)
	if s := Finish(good, "", base); s != 0 {
		t.Fatalf("pass = %d", s)
	}
	worse := file(Row{Name: "r", Value: 2, Better: "lower"})
	if s := Finish(worse, base, base); s != 1 {
		t.Fatalf("regression = %d", s)
	}
	if now, err := Read(base); err != nil || now.Rows[0].Value != 2 {
		t.Fatalf("out was not written after the check: %v %v", now, err)
	}
	if s := Finish(good, filepath.Join(t.TempDir(), "no", "such", "dir.json"), ""); s != 2 {
		t.Fatalf("unwritable out = %d", s)
	}
}
