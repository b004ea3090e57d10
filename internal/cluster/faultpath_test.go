package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
)

// The fault path: both runtimes ask a faults.Source what happens to each
// message, whether a write attempt's coordinator crashes, and how much
// backoff jitter a retry gets. These tests pin the deterministic runtime's
// delivery order under a plan and drive the seam with sources other than
// the plan itself.

// msgTraceHash runs RunChaos on the deterministic runtime under one named
// mix and hashes its complete message-level trace: every send, delivery
// and drop with sender, receiver and stage, in emission order.
func msgTraceHash(t *testing.T, mixName string) (uint64, int) {
	t.Helper()
	const n, steps = 7, 400
	mix, err := faults.Named(mixName)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Complete(n)
	c, err := New(graph.NewState(g, nil), quorum.Majority(n))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewTracing(1 << 17)
	c.SetObserver(reg)
	plan := faults.NewPlan(2718, mix)
	c.EnableChaos(plan)
	RunChaos(c, plan, 31, steps, n, g.M())
	tr := reg.Trace()
	if tr.Dropped() != 0 {
		t.Fatalf("%s: trace ring overflowed by %d events", mixName, tr.Dropped())
	}
	h := fnv.New64a()
	var buf [17]byte
	count := 0
	for _, e := range tr.Events() {
		switch e.Type {
		case obs.EvMsgSend, obs.EvMsgRecv, obs.EvMsgDrop:
		default:
			continue
		}
		buf[0] = byte(e.Type)
		binary.LittleEndian.PutUint32(buf[1:], uint32(e.Node))
		binary.LittleEndian.PutUint32(buf[5:], uint32(e.Peer))
		binary.LittleEndian.PutUint64(buf[9:], uint64(e.A))
		h.Write(buf[:])
		count++
	}
	return h.Sum64(), count
}

// TestChaosDeliveryOrderPinned holds the order in which the deterministic
// runtime delivers, duplicates and drops messages under a fault plan to
// constants recorded before its two delivery structures (a FIFO without a
// plan, a rank-ordered heap with one) became one queue. Reordering and delay
// move messages only relative to each other, so a wrong tie-break between
// equal ranks changes no outcome, counter or golden — only this trace. A
// change meant to leave delivery alone must pass it without new constants.
func TestChaosDeliveryOrderPinned(t *testing.T) {
	want := map[string]struct {
		hash   uint64
		events int
	}{
		"reorder-delay": {0x70412d79c5ec53fa, 16924},
		"dup":           {0x91e7d834c3924122, 24264},
	}
	for mixName, w := range want {
		got, events := msgTraceHash(t, mixName)
		if got != w.hash || events != w.events {
			t.Errorf("%s: message trace hash %#x over %d events, want %#x over %d",
				mixName, got, events, w.hash, w.events)
		}
	}
}

// midApplySource delivers every message and crashes each write attempt's
// coordinator mid-apply with prefix selector k.
type midApplySource struct{ k int }

func (midApplySource) Message(uint64, uint8, int, int, int) faults.Decision {
	return faults.Decision{}
}

func (s midApplySource) Crash(uint64, int) (faults.CrashPoint, int) {
	return faults.CrashMidApply, s.k
}

func (midApplySource) Jitter(uint64, int) float64 { return 0 }

// TestScriptedMidApplyPrefix forces a mid-apply crash with every prefix on a
// 5-site cluster: the coordinator and exactly the first k responders, in
// sender order, hold the residue stamp, and Spread counts those k.
func TestScriptedMidApplyPrefix(t *testing.T) {
	const n = 5
	for k := 0; k < n; k++ {
		c, err := New(graph.NewState(graph.Complete(n), nil), quorum.Majority(n))
		if err != nil {
			t.Fatal(err)
		}
		c.EnableChaos(midApplySource{k: k})
		out := c.ChaosWrite(0, 1)
		if !errors.Is(out.Err, ErrCrashed) || len(out.Residue) != 1 {
			t.Fatalf("k=%d: got %v with residues %v, want ErrCrashed with one", k, out.Err, out.Residue)
		}
		r := out.Residue[0]
		if r.Spread != k {
			t.Errorf("k=%d: Spread %d", k, r.Spread)
		}
		for i := 0; i < n; i++ {
			if holds, want := c.NodeStamp(i) == r.Stamp, i <= k; holds != want {
				t.Errorf("k=%d: site %d holds the residue stamp: %v, want %v", k, i, holds, want)
			}
		}
	}
}

// recordingSource passes every question to a plan and logs the crash and
// jitter keys it was asked, in order, and how many messages it decided.
type recordingSource struct {
	*faults.Plan
	mu       sync.Mutex
	keys     []string
	messages int
}

func (r *recordingSource) Message(op uint64, stage uint8, from, to, attempt int) faults.Decision {
	r.mu.Lock()
	r.messages++
	r.mu.Unlock()
	return r.Plan.Message(op, stage, from, to, attempt)
}

func (r *recordingSource) Crash(op uint64, attempt int) (faults.CrashPoint, int) {
	r.mu.Lock()
	r.keys = append(r.keys, fmt.Sprintf("crash %d/%d", op, attempt))
	r.mu.Unlock()
	return r.Plan.Crash(op, attempt)
}

func (r *recordingSource) Jitter(op uint64, attempt int) float64 {
	r.mu.Lock()
	r.keys = append(r.keys, fmt.Sprintf("jitter %d/%d", op, attempt))
	r.mu.Unlock()
	return r.Plan.Jitter(op, attempt)
}

// runWithSource runs the chaos harness on a fresh runtime of the given kind
// with src attached; RecoverNow is always the bare plan's.
func runWithSource(t *testing.T, async bool, plan *faults.Plan, src faults.Source) *ChaosRun {
	t.Helper()
	const n, steps = 7, 500
	g := graph.Complete(n)
	var rt Runtime
	if async {
		a, err := NewAsync(graph.NewState(g, nil), quorum.Majority(n))
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		rt = a
	} else {
		c, err := New(graph.NewState(g, nil), quorum.Majority(n))
		if err != nil {
			t.Fatal(err)
		}
		rt = c
	}
	rt.EnableChaos(src)
	return RunChaos(rt, plan, 23, steps, n, g.M())
}

// TestRecordingSourceIsTransparent: wrapping the plan in another Source
// changes nothing a run reports, and both runtimes ask the source for the
// same crash and jitter keys in the same order.
func TestRecordingSourceIsTransparent(t *testing.T) {
	for _, mixName := range chaosMixes {
		mix, err := faults.Named(mixName)
		if err != nil {
			t.Fatal(err)
		}
		plan := faults.NewPlan(99, mix)
		rec := &recordingSource{Plan: plan}
		bare, wrapped := runWithSource(t, false, plan, plan), runWithSource(t, false, plan, rec)
		if !reflect.DeepEqual(bare, wrapped) {
			t.Fatalf("%s: the wrapped plan changed the run:\nbare:    %v %+v\nwrapped: %v %+v",
				mixName, bare, bare.Counters, wrapped, wrapped.Counters)
		}
		if rec.messages == 0 || len(rec.keys) == 0 {
			t.Fatalf("%s: the wrapper was never asked (%d messages, %d keys)", mixName, rec.messages, len(rec.keys))
		}
		if mixName != "drop" {
			continue
		}
		if wrapped.Counters.Retries == 0 {
			t.Fatal("drop: no retries, so no jitter key was asked")
		}
		recA := &recordingSource{Plan: plan}
		bareA, wrappedA := runWithSource(t, true, plan, plan), runWithSource(t, true, plan, recA)
		if !reflect.DeepEqual(bareA.Results, wrappedA.Results) || bareA.Counters != wrappedA.Counters {
			t.Fatalf("async: the wrapped plan changed the run:\nbare:    %v %+v\nwrapped: %v %+v",
				bareA, bareA.Counters, wrappedA, wrappedA.Counters)
		}
		if !reflect.DeepEqual(rec.keys, recA.keys) {
			t.Fatalf("the runtimes asked different crash/jitter keys: %d vs %d", len(rec.keys), len(recA.keys))
		}
	}
}
