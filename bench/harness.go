package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// A workload is one set of inputs the benchmark runs. Every repetition
// builds a fresh runner from the same seed, so repetitions of one run see
// the same schedule and must produce the same counts and digest.
type workload struct {
	name string
	why  string
	// ops is the number of timed operations per repetition at -scale 1,
	// sized so one repetition's timed region takes 0.6–0.8 s on the reference
	// box. Operation counts are fixed; only the number of repetitions
	// depends on -seconds.
	ops int
	// newRun builds the state and the schedule for warm+ops operations.
	newRun func(seed uint64, warm, ops int, tr *tracer) (runner, error)
}

// runner is the state of one repetition.
type runner interface {
	// step performs operation i of the schedule and reports whether its
	// output check passed.
	step(i int) bool
	// endWarmup closes the warm-up pass: it runs the set-up-time checks
	// and marks the point the counts are taken from.
	endWarmup() error
	// tally returns the counts of the timed region and the digest of every
	// outcome since the runner was built.
	tally() ([]count, uint64)
	// scheduleSeconds is the part of set-up spent generating the schedule.
	scheduleSeconds() float64
}

// count is one exact, named tally of a repetition.
type count struct {
	name string
	n    int64
}

// warmShare is the share of the timed operation count that runs, untimed,
// through the same code path during set-up.
const warmShare = 4

// digest is FNV-1a folded over 64-bit words instead of bytes: one multiply
// per outcome field keeps it off the latency budget of a 1.5 µs operation.
type digest uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (d *digest) word(w uint64) { *d = (*d ^ digest(w)) * fnvPrime }

// rep holds what one repetition measured.
type rep struct {
	setupS  float64
	wallS   float64
	ops     int
	failed  int
	p50us   float64
	p99us   float64
	counts  []count
	digest  uint64
	scheduS float64 // schedule generation, the part of setupS spent in the harness
	mem     memDelta
}

// memDelta is the runtime's allocation and collector activity over one
// timed region.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNs      uint64
	heapPeak       uint64
}

// runRep runs one repetition: set-up (build, boot solve, schedule, warm-up
// pass), a collection, then the timed region of exactly ops operations by
// one client that issues the next operation when the previous one returns.
// lat receives the completion-to-completion interval of every operation.
func runRep(w *workload, seed uint64, ops int, tr *tracer, lat []int64) (rep, error) {
	warm := ops / warmShare
	t0 := time.Now()
	r, err := w.newRun(seed, warm, ops, tr)
	if err != nil {
		return rep{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	for i := 0; i < warm; i++ {
		if !r.step(i) {
			return rep{}, fmt.Errorf("%s: warm-up operation %d failed its output check", w.name, i)
		}
	}
	if err := r.endWarmup(); err != nil {
		return rep{}, fmt.Errorf("%s: warm-up check: %w", w.name, err)
	}
	out := rep{ops: ops, setupS: time.Since(t0).Seconds(), scheduS: r.scheduleSeconds()}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if tr != nil {
		tr.enabled = true
	}
	lat = lat[:ops]
	start := time.Now()
	prev := int64(0)
	for i := 0; i < ops; i++ {
		if !r.step(warm + i) {
			out.failed++
		}
		now := int64(time.Since(start))
		lat[i] = now - prev
		prev = now
	}
	out.wallS = float64(prev) / 1e9
	if tr != nil {
		tr.enabled = false
		tr.finishRep()
	}
	runtime.ReadMemStats(&m1)
	out.mem = memDelta{
		mallocs:   m1.Mallocs - m0.Mallocs,
		bytes:     m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:  m1.NumGC - m0.NumGC,
		gcPauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
		heapPeak:  m1.HeapSys,
	}
	out.counts, out.digest = r.tally()
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	out.p50us = float64(percentile(lat, 50)) / 1e3
	out.p99us = float64(percentile(lat, 99)) / 1e3
	return out, nil
}

// percentile returns the p-th percentile of an ascending slice by the
// nearest-rank rule: the smallest value with at least p% of the samples at
// or below it.
func percentile(sorted []int64, p int) int64 {
	rank := (len(sorted)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// minReps is the least number of repetitions a run reports a median of.
const minReps = 3

// result is what one run of one workload reports.
type result struct {
	reps      []rep
	attempted int
	failed    int
}

// endToEnd lists the end-to-end metrics in the order they are printed, with
// the share of the median each may worsen by before it is a regression;
// BENCHMARK.json carries the same table.
var endToEnd = []struct {
	name, unit, better string
	bound              float64
}{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
}

// perRep returns the per-repetition values of one end-to-end metric.
func (r *result) perRep(metric string) []float64 {
	v := make([]float64, len(r.reps))
	for i, p := range r.reps {
		switch metric {
		case "setup_s":
			v[i] = p.setupS
		case "ops_per_s":
			v[i] = float64(p.ops) / p.wallS
		case "op_p50_us":
			v[i] = p.p50us
		case "op_p99_us":
			v[i] = p.p99us
		default:
			panic("bench: unknown end-to-end metric " + metric)
		}
	}
	return v
}

// runWorkload repeats the workload, fresh state and the same seed each
// time, until the timed regions add up to the requested seconds, and at
// least minReps times. With a tracer every untraced repetition is followed
// by the same repetition under spans, so that a slow minute of the machine
// falls on both alike. A repetition whose counts or digest differ from the
// first is fatal: the schedule or the program is not deterministic (or
// tracing changed what the program did), and no median over such
// repetitions means anything.
func runWorkload(w *workload, seed uint64, seconds, scale float64, tr *tracer) (plain, traced *result, err error) {
	ops := int(float64(w.ops) * scale)
	if ops < warmShare {
		ops = warmShare
	}
	lat := make([]int64, ops)
	for i := range lat {
		lat[i] = 1 // touch every page before the first timed region
	}
	plain, traced = &result{}, &result{}
	timed := 0.0
	add := func(res *result, tr *tracer) error {
		p, err := runRep(w, seed, ops, tr, lat)
		if err != nil {
			return err
		}
		if len(plain.reps) > 0 {
			first := plain.reps[0]
			if p.digest != first.digest || p.failed != first.failed || !sameCounts(p.counts, first.counts) {
				return fmt.Errorf("%s: a repetition differs from repetition 0 (digest %016x vs %016x, counts %v vs %v)",
					w.name, p.digest, first.digest, p.counts, first.counts)
			}
		}
		res.reps = append(res.reps, p)
		res.attempted += p.ops
		res.failed += p.failed
		timed += p.wallS
		return nil
	}
	for len(plain.reps) < minReps || timed < seconds {
		if err := add(plain, nil); err != nil {
			return nil, nil, err
		}
		if tr != nil {
			if err := add(traced, tr); err != nil {
				return nil, nil, err
			}
		}
	}
	return plain, traced, nil
}

func sameCounts(a, b []count) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
