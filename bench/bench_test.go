package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"quorumkit/internal/stats"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]int64, 1000)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    int
		want int64
	}{{50, 500}, {99, 990}, {100, 1000}, {1, 10}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %d) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
	// Ten samples lie beyond the 99th percentile of a 1000-operation
	// repetition, the least the tail percentile may rest on.
	if beyond := len(v) - int(percentile(v, 99)); beyond != 10 {
		t.Errorf("%d samples beyond p99 of 1000, want 10", beyond)
	}
}

func TestMedianOfRepetitions(t *testing.T) {
	// One slow repetition out of three must not move the reported value.
	r := result{reps: []rep{{ops: 100, wallS: 1}, {ops: 100, wallS: 5}, {ops: 100, wallS: 1.01}}}
	if got := stats.Median(r.perRep("ops_per_s")); math.Abs(got-100/1.01) > 1e-9 {
		t.Errorf("median ops_per_s = %g, want %g", got, 100/1.01)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %g %g %g, want 3.5 13.5 31", q1, q2, q3)
	}
}

// tinyOps is a repetition small enough for the unit tests and still one
// whole block of every schedule.
var tinyOps = map[string]int{
	"serve-read-heavy":  2000,
	"serve-write-heavy": 2000,
	"churn-resolve":     4000,
	"paper-study":       8,
	"solve-ladder":      20,
}

func TestSameSeedSameDigest(t *testing.T) {
	for _, w := range workloads {
		ops := tinyOps[w.name]
		lat := make([]int64, ops)
		a, err := runRep(w, 7, ops, nil, lat)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runRep(w, 7, ops, nil, lat)
		if err != nil {
			t.Fatal(err)
		}
		if a.failed != 0 || b.failed != 0 {
			t.Errorf("%s: %d and %d operations failed their output check", w.name, a.failed, b.failed)
		}
		if a.digest != b.digest || !sameCounts(a.counts, b.counts) {
			t.Errorf("%s: same seed, different outcome: %016x %v vs %016x %v", w.name, a.digest, a.counts, b.digest, b.counts)
		}
		c, err := runRep(w, 8, ops, nil, lat)
		if err != nil {
			t.Fatal(err)
		}
		if c.digest == a.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %016x", w.name, a.digest)
		}
		// Tracing observes; it must not change what the program did.
		tr := newTracer()
		d, err := runRep(w, 7, ops, tr, lat)
		if err != nil {
			t.Fatal(err)
		}
		if d.digest != a.digest {
			t.Errorf("%s: tracing changed the digest", w.name)
		}
		if n := tr.stats[0][spOp].n; n != ops {
			t.Errorf("%s: %d root spans for %d timed operations", w.name, n, ops)
		}
	}
}

func TestSeedsChangeSchedules(t *testing.T) {
	if reflect.DeepEqual(mixSchedule(1, 500, 0.9), mixSchedule(2, 500, 0.9)) {
		t.Error("mixSchedule ignores the seed")
	}
	if reflect.DeepEqual(gridSchedule(1, 60, 30), gridSchedule(2, 60, 30)) {
		t.Error("gridSchedule ignores the seed")
	}
	a, _ := ladderSchedule(1, 100)
	b, _ := ladderSchedule(2, 100)
	if reflect.DeepEqual(a, b) {
		t.Error("ladderSchedule ignores the seed")
	}
	g := churnMix.graph()
	if reflect.DeepEqual(churnSchedule(1, 5000, g, *churnMix.churn, 0.1), churnSchedule(2, 5000, g, *churnMix.churn, 0.1)) {
		t.Error("churnSchedule ignores the seed")
	}
	if !reflect.DeepEqual(churnSchedule(3, 5000, g, *churnMix.churn, 0.1), churnSchedule(3, 5000, g, *churnMix.churn, 0.1)) {
		t.Error("churnSchedule is not a function of the seed")
	}
}

// The generators must keep their class shares, or a percentile lands on
// the boundary between two classes and reads whichever side noise picks.
func TestScheduleClassShares(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		// Any window of 1000 consecutive solves holds exactly 3% large.
		systems, _ := ladderSchedule(seed, 1250)
		for _, from := range []int{0, 250} {
			large, nine := 0, 0
			for _, s := range systems[from : from+1000] {
				if len(s.Votes) >= ladderLargeFrom {
					large++
				}
				if len(s.Votes) == 9 {
					nine++
				}
			}
			if large != 30 || nine != 400 {
				t.Errorf("seed %d window %d: %d large and %d nine-site solves in 1000, want 30 and 400", seed, from, large, nine)
			}
		}
		writes := 0
		sched := mixSchedule(seed, 200_000, readHeavy.readShare)
		for _, b := range sched {
			if b&schedWrite != 0 {
				writes++
			}
			if int(b&^schedWrite) >= serveSites {
				t.Fatalf("coordinator %d out of range", b&^schedWrite)
			}
		}
		if share := float64(writes) / float64(len(sched)); math.Abs(share-0.1) > 0.005 {
			t.Errorf("seed %d: minority share %.4f of the read-heavy mix, want 0.10", seed, share)
		}
		per := make([]int, 30)
		for _, c := range gridSchedule(seed, 1080, 30) {
			per[c]++
		}
		for c, n := range per {
			if n != 36 {
				t.Errorf("seed %d: grid point %d visited %d times in 1080, want 36", seed, c, n)
			}
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the tables the program reports
// from: every name well-formed, every end-to-end metric with its unit,
// direction and bound, every per-layer metric and workload listed.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("metric %q unit %q is not well-formed", n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program has %q (or their reasons differ)", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || !name.MatchString(w.name) {
			t.Errorf("workload %q: name or reason outside the limits", w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		d := doc.EndToEnd[i]
		check(m.name, m.unit)
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, program has %+v", i, d, m)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.name, m.bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		d := doc.PerLayer[i]
		check(m.name, m.unit)
		if d.Name != m.name || d.Unit != m.unit || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, program has %+v", i, d, m)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d or paths %v outside the contract", doc.RunSeconds, doc.Paths)
	}
}
