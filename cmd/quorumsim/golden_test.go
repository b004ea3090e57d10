package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestChaosObsArtifactsGolden runs the CLI's chaos mode on the
// deterministic runtime with a fixed seed and compares the -metrics and
// -trace artifacts byte-for-byte against checked-in goldens. The
// deterministic runtime records no wall-clock values (the op-nanos
// histogram stays empty) and draws all randomness from the seed, so the
// artifacts are fully reproducible; any drift means the protocol, the
// instrumentation, or the exposition format changed, which must be
// deliberate. Regenerate with: go test ./cmd/quorumsim -run Golden -update
func TestChaosObsArtifactsGolden(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.prom")
	trace := filepath.Join(dir, "trace.jsonl")
	// A small trace ring keeps the goldens compact and exercises ring
	// wrap-around: the artifact holds the last 2048 events of the run.
	sink, err := newObsSink(metrics, trace, "", 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	if status := runChaos("crash", "", 120, 5, 42, false, sink); status != 0 {
		t.Fatalf("chaos run exited %d", status)
	}
	if err := sink.finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, metrics, filepath.Join("testdata", "chaos_crash_metrics.prom"))
	compareGolden(t, trace, filepath.Join("testdata", "chaos_crash_trace.jsonl"))
}

// TestChaosStopsEachAsyncRuntime: every async run must stop its site
// goroutines before the next mix starts, not when the whole sweep returns
// (`chaos -async -mix all` used to hold all five runtimes open).
//
// Close joins each site goroutine through a WaitGroup, but a goroutine
// still runs the last instructions of its deferred Done after Wait has
// returned (it can be preempted right after the counter reaches zero), and
// Go has no way to join a goroutine's exit itself. So the count is allowed
// a bounded moment to settle; a goroutine that never exits still fails.
func TestChaosStopsEachAsyncRuntime(t *testing.T) {
	before := runtime.NumGoroutine()
	run, err := chaosOnce("drop", "disk-torn", 40, 5, 7, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Log.Check(); err != nil {
		t.Fatal(err)
	}
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Fatalf("%d goroutines before the run, %d a second after it returned", before, after)
	}
}

// TestChurnObsArtifactsGolden does the same for the richer self-healing
// path: one deterministic-runtime soak (daemon on), covering suspicion
// edges, mode changes, degraded rejects, and daemon counters.
func TestChurnObsArtifactsGolden(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.prom")
	trace := filepath.Join(dir, "trace.jsonl")
	// A small trace ring keeps the goldens compact and exercises ring
	// wrap-around: the artifact holds the last 2048 events of the run.
	sink, err := newObsSink(metrics, trace, "", 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	// One runtime, one seed, daemon on: the deterministic slice of what
	// `quorumsim churn` runs.
	if run, err := soakOnce(sink, false, true, 42, 600, 9, 0.9); err != nil {
		t.Fatal(err)
	} else if run.ViolationErr != nil {
		t.Fatal(run.ViolationErr)
	}
	if err := sink.finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, metrics, filepath.Join("testdata", "churn_metrics.prom"))
	compareGolden(t, trace, filepath.Join("testdata", "churn_trace.jsonl"))
}

func compareGolden(t *testing.T, gotPath, goldenPath string) {
	t.Helper()
	got, err := os.ReadFile(gotPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatalf("artifact %s is empty", gotPath)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		gotLines := bytes.Split(got, []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w []byte
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("%s drifted at line %d:\n got: %s\nwant: %s",
					goldenPath, i+1, g, w)
			}
		}
		t.Fatalf("%s drifted (lengths %d vs %d)", goldenPath, len(got), len(want))
	}
}

// TestObsSinkOffIsNil: with no destinations requested the sink must keep
// the registry nil, preserving the runtimes' no-op fast path.
func TestObsSinkOffIsNil(t *testing.T) {
	sink, err := newObsSink("", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if sink.registry() != nil {
		t.Fatalf("idle sink allocated a registry")
	}
	sink.attach(struct{}{}) // non-observable target: must not panic
	if err := sink.finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}
