package obs

import (
	"strings"
	"testing"
)

// TestNilRegistryNoop verifies the "instrumentation off" configuration: a
// nil *Registry accepts every method without panicking and reads back as
// empty, and the write-only methods never allocate. This is what makes
// threading obs through the runtimes free by default.
func TestNilRegistryNoop(t *testing.T) {
	var r *Registry
	if allocs := testing.AllocsPerRun(100, func() {
		r.Inc(CMsgSent)
		r.Add(CMsgSent, 10)
		r.AddGauge(GSuspectedPeers, 1)
		r.MaxGauge(GQuorumEpoch, 9)
		r.Observe(HReadMsgs, 3)
		r.Emit(EvMsgSend, 0, 1, 2, 3)
	}); allocs != 0 {
		t.Fatalf("nil registry allocates: %v allocs per run", allocs)
	}
	if r.Counter(CMsgSent) != 0 || r.Gauge(GQuorumEpoch) != 0 {
		t.Fatalf("nil registry read back non-zero")
	}
	if r.Tracing() {
		t.Fatalf("nil registry claims to trace")
	}
	if r.Trace() != nil {
		t.Fatalf("nil registry returned a tracer")
	}
	if s := r.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("nil registry snapshot not zero: %+v", s)
	}
}

func TestCountersAndGauges(t *testing.T) {
	r := New()
	r.Inc(CReadGrant)
	r.Inc(CReadGrant)
	r.Add(CReadGrant, 3)
	if got := r.Counter(CReadGrant); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := r.Counter(CReadDeny); got != 0 {
		t.Fatalf("untouched counter = %d, want 0", got)
	}

	r.AddGauge(GDegradedNodes, 4)
	r.AddGauge(GDegradedNodes, -1)
	if got := r.Gauge(GDegradedNodes); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}

	r.MaxGauge(GQuorumEpoch, 7)
	r.MaxGauge(GQuorumEpoch, 3) // lower: must not regress
	r.MaxGauge(GQuorumEpoch, 9)
	if got := r.Gauge(GQuorumEpoch); got != 9 {
		t.Fatalf("max gauge = %d, want 9", got)
	}
}

func TestNamesAreUniqueAndComplete(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if name == "" {
			t.Fatalf("instrument with empty exposition name")
		}
		if !strings.HasPrefix(name, "quorumkit_") {
			t.Fatalf("name %q lacks the quorumkit_ prefix", name)
		}
		if seen[name] {
			t.Fatalf("duplicate exposition name %q", name)
		}
		seen[name] = true
	}
	for c := CounterID(0); c < numCounters; c++ {
		check(c.Name())
	}
	for g := GaugeID(0); g < numGauges; g++ {
		check(g.Name())
	}
	for h := HistID(0); h < numHists; h++ {
		check(h.Name())
	}
	for e := EventType(0); e < numEventTypes; e++ {
		if eventNames[e] == "" {
			t.Fatalf("event type %d has no name", e)
		}
	}
}

func TestHistBucketing(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1 << 29, 30},
		{1 << 62, HistBuckets - 1}, // clamps to the +Inf bucket
	}
	var h Hist
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Fatalf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		h.Observe(c.v)
	}
	s := h.snapshot()
	if s.Count != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", s.Count, len(cases))
	}
	var sum int64
	for _, c := range cases {
		sum += c.v
	}
	if s.Sum != sum {
		t.Fatalf("sum = %d, want %d", s.Sum, sum)
	}
	// Every observation must land in exactly its predicted bucket.
	wantBuckets := map[int]int64{}
	for _, c := range cases {
		wantBuckets[c.bucket]++
	}
	for i, n := range s.Buckets {
		if n != wantBuckets[i] {
			t.Fatalf("bucket %d holds %d, want %d", i, n, wantBuckets[i])
		}
	}
}

func TestBucketBounds(t *testing.T) {
	// Bound i must admit every value of bucket i and reject bucket i+1's
	// smallest value, matching the exposition's inclusive "le" semantics.
	if BucketBound(0) != 0 {
		t.Fatalf("bound 0 = %d", BucketBound(0))
	}
	for i := 1; i < HistBuckets-1; i++ {
		bound := BucketBound(i)
		if bucketOf(bound) != i {
			t.Fatalf("bound %d (=%d) not in its own bucket (got %d)", i, bound, bucketOf(bound))
		}
		if bucketOf(bound+1) != i+1 {
			t.Fatalf("bound %d+1 should start bucket %d", i, i+1)
		}
	}
	if BucketBound(HistBuckets-1) != -1 {
		t.Fatalf("final bucket bound should be +Inf (-1)")
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewTracing(8)
	r.Add(CMsgSent, 10)
	r.AddGauge(GCrashedNodes, 2)
	r.Observe(HReadMsgs, 4)
	r.Emit(EvMsgSend, 0, 1, 0, 0)
	before := r.Snapshot()

	r.Add(CMsgSent, 5)
	r.AddGauge(GCrashedNodes, -1)
	r.Observe(HReadMsgs, 4)
	r.Observe(HReadMsgs, 6)
	r.Emit(EvMsgDrop, 0, 1, 0, 0)
	r.Emit(EvMsgDrop, 0, 2, 0, 0)
	d := r.Snapshot().Delta(before)

	if got := d.Counter(CMsgSent); got != 5 {
		t.Fatalf("delta counter = %d, want 5", got)
	}
	// Gauges are instantaneous: Delta keeps the current value.
	if got := d.Gauge(GCrashedNodes); got != 1 {
		t.Fatalf("delta gauge = %d, want current value 1", got)
	}
	if h := d.Hists[HReadMsgs]; h.Count != 2 || h.Sum != 10 {
		t.Fatalf("delta hist count=%d sum=%d, want 2/10", h.Count, h.Sum)
	}
	if d.TraceEmitted != 2 {
		t.Fatalf("delta trace emitted = %d, want 2", d.TraceEmitted)
	}
}

// TestCollectReportsGrowthSinceRegistration: a collector's counts enter
// every snapshot, Counter and Gauge read as what they grew by since Collect,
// beside the registry's own atomics; collectors add up; and a nil registry
// takes a collector without calling it.
func TestCollectReportsGrowthSinceRegistration(t *testing.T) {
	var sent, suspects int64 = 7, 3 // counted elsewhere before registration
	calls := 0
	report := func(acc *Registry) {
		calls++
		acc.Add(CMsgSent, sent)
		acc.AddGauge(GSuspectedPeers, suspects)
	}
	r := New()
	r.Inc(CMsgSent)
	r.Collect(report)
	if got := r.Counter(CMsgSent); got != 1 {
		t.Fatalf("counter right after Collect = %d, want the live 1", got)
	}
	sent, suspects = 12, 1
	r.Inc(CMsgSent)
	if got := r.Counter(CMsgSent); got != 2+5 {
		t.Fatalf("counter = %d, want 2 live + 5 collected", got)
	}
	if got := r.Gauge(GSuspectedPeers); got != -2 {
		t.Fatalf("gauge = %d, want the collected change -2", got)
	}
	r.Collect(func(acc *Registry) { acc.Add(CMsgSent, sent) }) // counts from 12
	sent = 20
	s := r.Snapshot()
	if got := s.Counter(CMsgSent); got != 2+13+8 {
		t.Fatalf("two collectors: counter = %d, want 2 + 13 + 8", got)
	}
	if s.Counter(CMsgDelivered) != 0 || s.Gauge(GCrashedNodes) != 0 {
		t.Fatalf("a counter no collector reports moved: %+v", s)
	}
	before := calls
	r.Inc(CMsgSent)
	r.AddGauge(GSuspectedPeers, 1)
	if calls != before {
		t.Fatalf("Inc or AddGauge ran a collector")
	}

	var off *Registry
	off.Collect(report)
	if calls != before || off.Counter(CMsgSent) != 0 {
		t.Fatalf("nil registry ran or reported a collector")
	}
}

func TestTraceRingWraparound(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 6; i++ {
		tr.emit(EvMsgSend, int32(i), -1, 0, 0)
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Emitted() != 6 || tr.Dropped() != 2 {
		t.Fatalf("emitted/dropped = %d/%d, want 6/2", tr.Emitted(), tr.Dropped())
	}
	evs := tr.Events()
	for i, e := range evs {
		if want := uint64(i + 2); e.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (oldest survivors)", i, e.Seq, want)
		}
	}
}

func TestTraceFilter(t *testing.T) {
	tr := NewTrace(16)
	tr.emit(EvMsgSend, 0, 1, 0, 0)
	tr.emit(EvQuorumGrant, 0, 0, 3, 7)
	tr.emit(EvMsgDrop, 1, 2, 0, 0)
	tr.emit(EvQuorumDeny, 2, 1, 1, 3)
	got := tr.Filter(EvQuorumGrant, EvQuorumDeny)
	if len(got) != 2 || got[0].Type != EvQuorumGrant || got[1].Type != EvQuorumDeny {
		t.Fatalf("filter returned %+v", got)
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := NewTrace(4)
	tr.emit(EvQuorumGrant, 2, 0, 5, 17)
	tr.emit(EvTopology, -1, 3, 1, 0)
	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	want := `{"seq":0,"type":"quorum_grant","node":2,"peer":0,"a":5,"b":17}
{"seq":1,"type":"topology","node":-1,"peer":3,"a":1,"b":0}
`
	if sb.String() != want {
		t.Fatalf("jsonl output:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewTracing(8)
	r.Add(CReadGrant, 12)
	r.AddGauge(GQuorumEpoch, 3)
	r.Observe(HWriteMsgs, 5) // bucket 3 (le="7")
	r.Emit(EvMsgSend, 0, 1, 0, 0)

	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE quorumkit_reads_granted_total counter\nquorumkit_reads_granted_total 12\n",
		"# TYPE quorumkit_quorum_epoch gauge\nquorumkit_quorum_epoch 3\n",
		// Cumulative buckets: empty below the value's bucket, then 1 from
		// le="7" up through +Inf.
		"quorumkit_write_round_msgs_bucket{le=\"3\"} 0\n",
		"quorumkit_write_round_msgs_bucket{le=\"7\"} 1\n",
		"quorumkit_write_round_msgs_bucket{le=\"+Inf\"} 1\n",
		"quorumkit_write_round_msgs_sum 5\n",
		"quorumkit_write_round_msgs_count 1\n",
		"quorumkit_trace_events 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}

	// Identical snapshots must render byte-identically (golden tests and
	// the metamorphic suite rely on this).
	var sb2 strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Fatalf("two renders of the same snapshot differ")
	}
}

// offRegistry is a nil registry the compiler cannot prove nil, so the
// benchmark pays the guard a real call site pays.
var offRegistry *Registry

// BenchmarkNilRegistryInc is the cost of one instrumented call site with
// observation off: the nil guard and nothing else. A protocol read makes a
// few dozen such calls against microseconds of work, which is what keeps
// the no-op path under 2% (DESIGN §9).
func BenchmarkNilRegistryInc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		offRegistry.Inc(CReadGrant)
	}
}
