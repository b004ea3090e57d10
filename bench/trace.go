package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"quorumkit/internal/stats"
)

// Spans are recorded by the harness around each call it makes into a
// layer; nothing inside internal/ is instrumented. A span's layer is the
// internal/ package it enters ("harness" for the benchmark's own work).

type spanKind uint8

const (
	spOp spanKind = iota // root span of one operation
	spRead
	spWrite
	spSweep
	spTopology
	spCollect
	spOptimize
	spMeasure
	spSolve
	spCertify
	spCheck
	numSpanKinds
)

var spanKinds = [numSpanKinds]struct{ layer, name string }{
	spOp:       {"harness", "op"},
	spRead:     {"cluster", "ServeRead"},
	spWrite:    {"cluster", "ServeWrite"},
	spSweep:    {"cluster", "DaemonStep.sweep"},
	spTopology: {"cluster", "topology"},
	spCollect:  {"sim", "Collect"},
	spOptimize: {"core", "Model.Optimize"},
	spMeasure:  {"sim", "MeasureAvailability"},
	spSolve:    {"strategy", "OptimizeResilientCapacity"},
	spCertify:  {"strategy", "Result.Certify"},
	spCheck:    {"harness", "check"},
}

type span struct {
	op, parent int32
	kind       spanKind
	start, end int64 // ns since the tracer was made
}

// keepSpans caps how many spans of repetition 0 are written to the trace
// file; the per-layer numbers are computed from every span of every traced
// repetition before the cut.
const keepSpans = 100_000

// tracer keeps the spans of the current repetition in memory. A nil
// tracer, or one that is not enabled, records nothing, so the untraced run
// executes the same code with one predictable branch per call.
type tracer struct {
	enabled bool
	t0      time.Time
	spans   []span
	kept    []span      // first spans of repetition 0, for the trace file
	stats   []spanStats // one per traced repetition
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index, or -1 when tracing is off.
func (t *tracer) begin(op int, kind spanKind, parent int32) int32 {
	if t == nil || !t.enabled {
		return -1
	}
	t.spans = append(t.spans, span{op: int32(op), parent: parent, kind: kind, start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.t0))
	}
}

// kindStats summarises the spans of one kind in one repetition.
type kindStats struct {
	n            int
	totalNs      int64
	selfNs       int64 // total minus the time covered by child spans
	p50ns, p99ns int64
}

type spanStats [numSpanKinds]kindStats

// finishRep folds the repetition's spans into per-kind statistics and
// empties the buffer for the next repetition.
func (t *tracer) finishRep() {
	var st spanStats
	durs := make([][]int64, numSpanKinds)
	for _, s := range t.spans {
		d := s.end - s.start
		k := &st[s.kind]
		k.n++
		k.totalNs += d
		k.selfNs += d
		if s.parent >= 0 {
			st[t.spans[s.parent].kind].selfNs -= d
		}
		durs[s.kind] = append(durs[s.kind], d)
	}
	for kind, d := range durs {
		if len(d) == 0 {
			continue
		}
		sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
		st[kind].p50ns = percentile(d, 50)
		st[kind].p99ns = percentile(d, 99)
	}
	if len(t.stats) == 0 {
		n := len(t.spans)
		if n > keepSpans {
			n = keepSpans
		}
		t.kept = append([]span(nil), t.spans[:n]...)
	}
	t.stats = append(t.stats, st)
	t.spans = t.spans[:0]
}

// medianOf reports the median over the traced repetitions of f applied to
// one kind's statistics.
func (t *tracer) medianOf(kind spanKind, f func(kindStats) float64) float64 {
	v := make([]float64, len(t.stats))
	for i := range t.stats {
		v[i] = f(t.stats[i][kind])
	}
	return stats.Median(v)
}

// writeJSONL writes the kept spans, one JSON object a line.
func (t *tracer) writeJSONL(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.kept {
		k := spanKinds[s.kind]
		fmt.Fprintf(w, `{"workload":%q,"rep":0,"op":%d,"span":%d,"layer":%q,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d}`+"\n",
			workload, s.op, i, k.layer, k.name, s.start, s.end, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
