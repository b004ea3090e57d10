package obs

import (
	"bufio"
	"fmt"
	"io"
)

// Snapshot is a point-in-time copy of every instrument in a Registry.
// Snapshots are plain values: diffable with Delta, comparable field by
// field, and renderable as a Prometheus text exposition.
type Snapshot struct {
	Counters [numCounters]int64
	Gauges   [numGauges]int64
	Hists    [numHists]HistSnapshot

	// TraceEmitted/TraceDropped describe the attached tracer at snapshot
	// time (both zero when tracing is off).
	TraceEmitted uint64
	TraceDropped uint64
}

// Snapshot copies the current instrument values, and adds to the counters
// and gauges what each collector's counts grew by since it was registered
// (Collect). On a nil registry it returns the zero snapshot, so callers can
// diff unconditionally.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for i := range s.Counters {
		s.Counters[i] = r.counters[i].Load()
	}
	for i := range s.Gauges {
		s.Gauges[i] = r.gauges[i].Load()
	}
	for i := range s.Hists {
		s.Hists[i] = r.hists[i].snapshot()
	}
	if r.trace != nil {
		s.TraceEmitted = r.trace.Emitted()
		s.TraceDropped = r.trace.Dropped()
	}
	r.mu.Lock()
	collectors := r.collectors
	r.mu.Unlock()
	for _, c := range collectors {
		now := reported(c.report)
		for i := range s.Counters {
			s.Counters[i] += now.Counters[i] - c.base.Counters[i]
		}
		for i := range s.Gauges {
			s.Gauges[i] += now.Gauges[i] - c.base.Gauges[i]
		}
	}
	return s
}

// Counter returns the snapshot value of counter c.
func (s Snapshot) Counter(c CounterID) int64 { return s.Counters[c] }

// Gauge returns the snapshot value of gauge g.
func (s Snapshot) Gauge(g GaugeID) int64 { return s.Gauges[g] }

// Delta returns s − prev for every cumulative instrument (counters,
// histogram buckets, trace totals). Gauges are instantaneous, so the
// current value is kept as-is. This is what lets soak and churn harnesses
// assert on what happened *during* a phase — retries, reassignments,
// degraded intervals — rather than only on end state.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := s
	for i := range d.Counters {
		d.Counters[i] -= prev.Counters[i]
	}
	for i := range d.Hists {
		d.Hists[i] = s.Hists[i].Delta(prev.Hists[i])
	}
	d.TraceEmitted -= prev.TraceEmitted
	d.TraceDropped -= prev.TraceDropped
	return d
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (counters as *_total, histograms with cumulative le buckets).
// Output order is fixed by the instrument enums, so two snapshots of
// identical runs render byte-identically.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for c := CounterID(0); c < numCounters; c++ {
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", c.Name(), c.Name(), s.Counters[c])
	}
	for g := GaugeID(0); g < numGauges; g++ {
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", g.Name(), g.Name(), s.Gauges[g])
	}
	for h := HistID(0); h < numHists; h++ {
		name := h.Name()
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		cum := int64(0)
		for i := 0; i < HistBuckets; i++ {
			cum += s.Hists[h].Buckets[i]
			if bound := BucketBound(i); bound >= 0 {
				fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", name, bound, cum)
			} else {
				fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			}
		}
		fmt.Fprintf(bw, "%s_sum %d\n", name, s.Hists[h].Sum)
		fmt.Fprintf(bw, "%s_count %d\n", name, s.Hists[h].Count)
	}
	fmt.Fprintf(bw, "# TYPE quorumkit_trace_events gauge\nquorumkit_trace_events %d\n", s.TraceEmitted)
	fmt.Fprintf(bw, "# TYPE quorumkit_trace_dropped gauge\nquorumkit_trace_dropped %d\n", s.TraceDropped)
	return bw.Flush()
}
