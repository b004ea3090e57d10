package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"quorumkit/internal/stats"
)

type options struct {
	seed           uint64
	seconds, scale float64
	trace, json    bool
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// outcome is everything one workload's run reports. The end-to-end metrics
// always come from the untraced repetitions in res; layers is filled by a
// traced run only.
type outcome struct {
	w      *workload
	seed   uint64
	res    *result
	layers []metric
}

// traceDir is where a traced run leaves its span files, relative to the
// root of the checkout the benchmark is run from.
var traceDir = filepath.Join("bench", "out")

// measure runs one workload. A traced run spends two thirds of its seconds
// on repetitions, alternately untraced (the end-to-end numbers, and the base
// of the tracing overhead) and under spans, and the rest on layer probes.
func measure(w *workload, o options) (outcome, error) {
	out := outcome{w: w, seed: o.seed}
	var err error
	if !o.trace {
		out.res, _, err = runWorkload(w, o.seed, o.seconds, o.scale, nil)
		return out, err
	}
	tr := newTracer()
	var traced *result
	if out.res, traced, err = runWorkload(w, o.seed, o.seconds*2/3, o.scale, tr); err != nil {
		return out, err
	}
	probes, err := runProbes(o.seed)
	if err != nil {
		return out, fmt.Errorf("layer probes: %w", err)
	}
	out.layers = layerMetrics(out.res, traced, tr, probes)
	path, err := tr.writeJSONL(traceDir, w.name)
	if err != nil {
		return out, err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %d spans of repetition 0 to %s\n", len(tr.kept), path)
	return out, nil
}

func (o outcome) endToEnd() []metric {
	ms := make([]metric, len(endToEnd))
	for i, m := range endToEnd {
		ms[i] = metric{m.name, m.unit, stats.Median(o.res.perRep(m.name))}
	}
	return ms
}

func runOnce(run []*workload, o options) error {
	var outs []outcome
	for _, w := range run {
		out, err := measure(w, o)
		if err != nil {
			return err
		}
		if !o.json {
			printTable(out)
		}
		outs = append(outs, out)
	}
	switch {
	case o.json:
		return printDocument(outs)
	case len(outs) == 1:
		return printResultLine(outs[0])
	}
	return nil
}

func printTable(o outcome) {
	r := o.res
	fmt.Printf("%s  seed %d  %d reps x %d ops  digest %016x  failed %d/%d\n",
		o.w.name, o.seed, len(r.reps), r.reps[0].ops, r.reps[0].digest, r.failed, r.attempted)
	for _, m := range o.endToEnd() {
		fmt.Printf("  %-34s %14.4f %-6s per rep %s\n", m.name, m.value, m.unit, fmtReps(r.perRep(m.name)))
	}
	var cs []string
	for _, c := range r.reps[0].counts {
		cs = append(cs, fmt.Sprintf("%s=%d", c.name, c.n))
	}
	fmt.Printf("  counts per rep: %s\n", strings.Join(cs, " "))
	for _, m := range o.layers {
		fmt.Printf("  %-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
}

func fmtReps(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(s, " ") + "]"
}

// printResultLine prints the one-line result the driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one. An operation counts as failed when its output check failed; a run
// with any such operation is not correct.
func printResultLine(o outcome) error {
	ms := o.endToEnd()
	if o.layers != nil {
		ms = o.layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.res.failed == 0, o.res.attempted, o.res.failed, map[string]value{}}
	for _, m := range ms {
		line.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printDocument prints every name, per-repetition value and median of the
// run as one JSON document, for pipelines that parse instead of scrape.
func printDocument(outs []outcome) error {
	type repsOf struct {
		Unit   string    `json:"unit"`
		PerRep []float64 `json:"per_rep"`
		Median float64   `json:"median"`
	}
	type layerOf struct {
		Unit  string  `json:"unit"`
		Value float64 `json:"value"`
	}
	type workloadDoc struct {
		Name      string             `json:"name"`
		Reps      int                `json:"reps"`
		OpsPerRep int                `json:"ops_per_rep"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Digest    string             `json:"digest"`
		Counts    map[string]int64   `json:"counts"`
		Metrics   map[string]repsOf  `json:"metrics"`
		Layers    map[string]layerOf `json:"layers,omitempty"`
	}
	doc := struct {
		Seed       uint64        `json:"seed"`
		Go         string        `json:"go"`
		GOMAXPROCS int           `json:"gomaxprocs"`
		Workloads  []workloadDoc `json:"workloads"`
	}{outs[0].seed, runtime.Version(), runtime.GOMAXPROCS(0), nil}
	for _, o := range outs {
		r := o.res
		wd := workloadDoc{
			Name: o.w.name, Reps: len(r.reps), OpsPerRep: r.reps[0].ops,
			Attempted: r.attempted, Failed: r.failed,
			Digest: fmt.Sprintf("%016x", r.reps[0].digest),
			Counts: map[string]int64{}, Metrics: map[string]repsOf{},
		}
		for _, c := range r.reps[0].counts {
			wd.Counts[c.name] = c.n
		}
		for _, m := range o.endToEnd() {
			wd.Metrics[m.name] = repsOf{m.unit, r.perRep(m.name), m.value}
		}
		if o.layers != nil {
			wd.Layers = map[string]layerOf{}
			for _, m := range o.layers {
				wd.Layers[m.name] = layerOf{m.unit, m.value}
			}
		}
		doc.Workloads = append(doc.Workloads, wd)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns: the
// three cut points by the exclusive method, which is how the driver takes
// the spread of ten runs.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runAA runs n full sets, set i on seed+i as the driver does, and prints
// for every workload × metric the quartiles, the interquartile and max−min
// spreads as shares of the median, and how much worse the second half's
// median is than the first half's. It fails when a spread (set-up time
// excepted) or a half-to-half drift exceeds the metric's bound.
func runAA(run []*workload, o options, n int) error {
	if n < 4 {
		return fmt.Errorf("-aa needs at least 4 sets to take quartiles of two halves")
	}
	o.trace = false
	values := map[string][]float64{} // "workload metric" -> one median per set
	for i := 0; i < n; i++ {
		for _, w := range run {
			set := o
			set.seed += uint64(i)
			out, err := measure(w, set)
			if err != nil {
				return err
			}
			if out.res.failed > 0 {
				return fmt.Errorf("%s: %d operations failed their output check", w.name, out.res.failed)
			}
			for _, m := range out.endToEnd() {
				key := w.name + " " + m.name
				values[key] = append(values[key], m.value)
			}
			fmt.Fprintf(os.Stderr, "bench: set %d/%d %s done\n", i+1, n, w.name)
		}
	}
	fmt.Printf("| workload | metric | q1 | median | q3 | IQR/median | (max-min)/median | 2nd half vs 1st | bound | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|---|\n")
	bad := 0
	for _, w := range run {
		for _, m := range endToEnd {
			v := values[w.name+" "+m.name]
			q1, q2, q3 := quartiles(v)
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			iqr := (q3 - q1) / q2
			span := (s[len(s)-1] - s[0]) / q2
			first, second := stats.Median(v[:n/2]), stats.Median(v[n/2:])
			drift := (second - first) / first // positive = worse
			if m.better == "higher" {
				drift = -drift
			}
			verdict := "ok"
			if drift > m.bound || (m.name != "setup_s" && iqr > m.bound) {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %.4g | %.1f%% | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				w.name, m.name, q1, q2, q3, 100*iqr, 100*span, 100*drift, 100*m.bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload × metric pairs outside their bound", bad)
	}
	return nil
}
