package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"quorumkit/internal/obs"
)

// obsSink gathers the observability artifacts a CLI run was asked to
// produce: a Prometheus text snapshot (-metrics), a JSONL protocol trace
// (-trace), and CPU/heap profiles (-pprof). A nil sink, or one with no
// destinations, costs nothing: the registry stays nil, so every runtime
// keeps its no-op fast path.
type obsSink struct {
	reg     *obs.Registry
	metrics string // Prometheus text destination ("-" for stdout)
	trace   string // JSONL trace destination ("-" for stdout)
	cpu     *os.File
	heap    string
}

// newObsSink builds the sink for the requested artifact destinations and,
// when profiling is on, starts the CPU profile immediately so it covers the
// whole run.
func newObsSink(metrics, trace, pprofPrefix string, traceCap int) (*obsSink, error) {
	s := &obsSink{metrics: metrics, trace: trace}
	switch {
	case trace != "":
		s.reg = obs.NewTracing(traceCap)
	case metrics != "":
		s.reg = obs.New()
	}
	if pprofPrefix != "" {
		f, err := os.Create(pprofPrefix + ".cpu.pprof")
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		s.cpu = f
		s.heap = pprofPrefix + ".heap.pprof"
	}
	return s, nil
}

// registry returns the sink's registry; nil when observation is off, which
// every instrumented call site treats as a no-op.
func (s *obsSink) registry() *obs.Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// observable is satisfied by both cluster runtimes.
type observable interface{ SetObserver(*obs.Registry) }

// attach points a runtime at the sink's registry, if any.
func (s *obsSink) attach(rt any) {
	if s == nil || s.reg == nil {
		return
	}
	if o, ok := rt.(observable); ok {
		o.SetObserver(s.reg)
	}
}

// finish stops profiling and writes the requested artifacts. Call exactly
// once, after the measured run completes. A trace that outgrew its ring
// holds only the run's tail; finish says so on stderr.
func (s *obsSink) finish(stderr io.Writer) error {
	if s == nil {
		return nil
	}
	if s.cpu != nil {
		pprof.StopCPUProfile()
		if err := s.cpu.Close(); err != nil {
			return err
		}
		runtime.GC() // fold transient garbage so the heap profile shows live data
		if err := writeArtifact(s.heap, pprof.WriteHeapProfile); err != nil {
			return err
		}
	}
	if s.metrics != "" {
		snap := s.reg.Snapshot()
		if err := writeArtifact(s.metrics, snap.WritePrometheus); err != nil {
			return err
		}
	}
	if s.trace != "" {
		tr := s.reg.Trace()
		if err := writeArtifact(s.trace, tr.WriteJSONL); err != nil {
			return err
		}
		if d := tr.Dropped(); d > 0 {
			fmt.Fprintf(stderr, "trace: ring full, kept the last %d events and dropped %d earlier ones\n", tr.Len(), d)
		}
	}
	return nil
}

// writeArtifact writes one artifact to path, with "-" meaning stdout.
func writeArtifact(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
