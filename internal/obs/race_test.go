package obs

import (
	"io"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers every instrument from parallel writers
// while a reader snapshots and renders mid-flight, then checks the exact
// totals once writers quiesce. Run with -race this doubles as the data-race
// proof for the whole registry surface.
func TestRegistryConcurrent(t *testing.T) {
	const (
		writers = 8
		iters   = 2000
	)
	r := NewTracing(1 << 10)

	stop := make(chan struct{})
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.Snapshot()
			if err := s.WritePrometheus(io.Discard); err != nil {
				t.Errorf("mid-flight render: %v", err)
				return
			}
			_ = r.Trace().Events()
			_ = r.Trace().Filter(EvQuorumGrant)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Inc(CMsgSent)
				r.Add(CMsgDelivered, 2)
				r.AddGauge(GSuspectedPeers, 1)
				r.AddGauge(GSuspectedPeers, -1)
				r.MaxGauge(GQuorumEpoch, int64(w*iters+i))
				r.Observe(HReadMsgs, int64(i%100))
				r.Emit(EvQuorumGrant, int32(w), 0, int64(i), 0)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerDone.Wait()

	s := r.Snapshot()
	const total = writers * iters
	if got := s.Counter(CMsgSent); got != total {
		t.Fatalf("sent = %d, want %d", got, total)
	}
	if got := s.Counter(CMsgDelivered); got != 2*total {
		t.Fatalf("delivered = %d, want %d", got, 2*total)
	}
	if got := s.Gauge(GSuspectedPeers); got != 0 {
		t.Fatalf("paired gauge updates net %d, want 0", got)
	}
	if got := s.Gauge(GQuorumEpoch); got != (writers-1)*iters+iters-1 {
		t.Fatalf("max gauge = %d, want %d", got, (writers-1)*iters+iters-1)
	}
	if got := s.Hists[HReadMsgs].Count; got != total {
		t.Fatalf("hist count = %d, want %d", got, total)
	}
	if got := s.TraceEmitted; got != total {
		t.Fatalf("trace emitted = %d, want %d", got, total)
	}
}

// TestTraceConcurrentInvariants checks the ring's structural invariants
// under concurrent emission with wrap-around: the held window is the most
// recent cap events, in strictly increasing sequence order.
func TestTraceConcurrentInvariants(t *testing.T) {
	const (
		capEvents = 64
		writers   = 4
		iters     = 500
	)
	tr := NewTrace(capEvents)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tr.emit(EvMsgSend, int32(w), int32(i), 0, 0)
			}
		}(w)
	}
	wg.Wait()

	const total = writers * iters
	if tr.Emitted() != total {
		t.Fatalf("emitted = %d, want %d", tr.Emitted(), total)
	}
	if tr.Len() != capEvents {
		t.Fatalf("len = %d, want %d", tr.Len(), capEvents)
	}
	if tr.Dropped() != total-capEvents {
		t.Fatalf("dropped = %d, want %d", tr.Dropped(), total-capEvents)
	}
	evs := tr.Events()
	for i, e := range evs {
		if want := uint64(total - capEvents + i); e.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, want)
		}
	}
}

// TestNoBackgroundGoroutines pins down that the obs package spawns nothing:
// creating, exercising, and snapshotting registries must leave the
// goroutine count where it was. Observability that forks background workers
// would invalidate the metamorphic guarantees.
func TestNoBackgroundGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		r := NewTracing(128)
		r.Inc(CMsgSent)
		r.Observe(HOpNanos, 100)
		r.Emit(EvCrash, 1, -1, 0, 0)
		_ = r.Snapshot()
		_ = r.Trace().Events()
	}
	// Allow unrelated runtime goroutines a moment to settle before
	// comparing.
	var after int
	for i := 0; i < 20; i++ {
		after = runtime.NumGoroutine()
		if after <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after obs use", before, after)
}
