package cluster

import (
	"reflect"
	"testing"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/obs"
	"quorumkit/internal/quorum"
)

// Metamorphic property: observation never perturbs behaviour. An
// instrumented run and an uninstrumented run of the identical seed must
// produce identical histories, operation outcomes, fault counters, and
// final replica states. These tests drive the deterministic runtime (the
// concurrent one is not schedule-reproducible across invocations, so the
// property is not testable there; its instrumentation goes through the same
// write-only registry surface).

// chaosFingerprint is everything observable about a finished chaos run:
// the harness record plus the per-node replica end state.
type chaosFingerprint struct {
	Run      *ChaosRun
	Stamps   []int64
	Versions []int64
}

func chaosRunDet(t *testing.T, mixName string, seed uint64, reg *obs.Registry) chaosFingerprint {
	t.Helper()
	const n = 7
	mix, err := faults.Named(mixName)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Complete(n)
	st := graph.NewState(g, nil)
	c, err := New(st, quorum.Majority(n))
	if err != nil {
		t.Fatal(err)
	}
	c.SetObserver(reg)
	c.EnableChaos(faults.NewPlan(seed, mix), DefaultRetryPolicy())
	fp := chaosFingerprint{Run: RunChaos(c, faults.NewPlan(seed, mix), seed^0xc4a05, 600, n, g.M())}
	for i := 0; i < n; i++ {
		fp.Stamps = append(fp.Stamps, c.NodeStamp(i))
		fp.Versions = append(fp.Versions, c.NodeVersion(i))
	}
	return fp
}

func TestMetamorphicChaos(t *testing.T) {
	for _, mixName := range faults.Names() {
		mixName := mixName
		t.Run(mixName, func(t *testing.T) {
			t.Parallel()
			const seed = 41
			bare := chaosRunDet(t, mixName, seed, nil)
			reg := obs.NewTracing(obs.DefaultTraceCap)
			instrumented := chaosRunDet(t, mixName, seed, reg)

			if !reflect.DeepEqual(bare, instrumented) {
				t.Fatalf("instrumentation perturbed the run:\nbare:         %v\ninstrumented: %v",
					bare.Run, instrumented.Run)
			}
			// Sanity: the instrumented run actually observed something, so
			// the equality above is not vacuous.
			s := reg.Snapshot()
			if s.Counter(obs.CMsgSent) == 0 || s.TraceEmitted == 0 {
				t.Fatalf("instrumented run recorded nothing (sent=%d, trace=%d)",
					s.Counter(obs.CMsgSent), s.TraceEmitted)
			}
		})
	}
}

func soakRunDet(t *testing.T, daemon bool, seed uint64, reg *obs.Registry) (*AdversaryRun, []int64) {
	t.Helper()
	const sites = 9
	g := graph.Ring(sites)
	st := graph.NewState(g, nil)
	c, err := New(st, quorum.Majority(sites))
	if err != nil {
		t.Fatal(err)
	}
	c.SetObserver(reg)
	hc := DefaultHealthConfig()
	hc.Alpha = 0.9
	run := runSoak(t, c, SoakScenario(seed, 800, sites, g.M(), 0.9,
		faults.ChurnConfig{SiteMTBF: 250, SiteMTTR: 25, LinkMTBF: 60, LinkMTTR: 25}, daemon, hc))
	var stamps []int64
	for i := 0; i < sites; i++ {
		stamps = append(stamps, c.NodeStamp(i))
	}
	return run, stamps
}

func TestMetamorphicSoak(t *testing.T) {
	for _, daemon := range []bool{false, true} {
		daemon := daemon
		name := "daemon-off"
		if daemon {
			name = "daemon-on"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const seed = 11
			bareRun, bareStamps := soakRunDet(t, daemon, seed, nil)
			reg := obs.NewTracing(obs.DefaultTraceCap)
			obsRun, obsStamps := soakRunDet(t, daemon, seed, reg)

			if !reflect.DeepEqual(bareRun, obsRun) {
				t.Fatalf("instrumentation perturbed the soak:\nbare:         %v\ninstrumented: %v",
					bareRun, obsRun)
			}
			if !reflect.DeepEqual(bareStamps, obsStamps) {
				t.Fatalf("final stamps diverged: %v vs %v", bareStamps, obsStamps)
			}
			if reg.Snapshot().Counter(obs.CMsgSent) == 0 {
				t.Fatalf("instrumented soak recorded nothing")
			}
		})
	}
}

// TestMetamorphicTraceDeterminism: on the deterministic runtime the trace
// itself is part of the reproducible output — two instrumented runs of the
// same seed must emit the identical event sequence.
func TestMetamorphicTraceDeterminism(t *testing.T) {
	const seed = 97
	regA := obs.NewTracing(obs.DefaultTraceCap)
	regB := obs.NewTracing(obs.DefaultTraceCap)
	chaosRunDet(t, "crash", seed, regA)
	chaosRunDet(t, "crash", seed, regB)
	if !reflect.DeepEqual(regA.Trace().Events(), regB.Trace().Events()) {
		t.Fatalf("same-seed traces differ")
	}
	if regA.Snapshot() != regB.Snapshot() {
		t.Fatalf("same-seed snapshots differ")
	}
}

// TestPhaseDeltaAssertions shows the harness pattern Snapshot.Delta
// exists for: snapshot between phases and assert on what happened *during*
// a phase, not just end state.
func TestPhaseDeltaAssertions(t *testing.T) {
	const n = 5
	st := graph.NewState(graph.Complete(n), nil)
	c, err := New(st, quorum.Majority(n))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	c.SetObserver(reg)

	for i := 0; i < 10; i++ {
		c.Read(i % n)
	}
	if err := c.Reassign(0, quorum.Assignment{QR: 2, QW: n - 1}); err != nil {
		t.Fatal(err)
	}
	mid := reg.Snapshot()

	for i := 0; i < 5; i++ {
		if !c.Write(i%n, int64(i)) {
			t.Fatalf("write %d denied on healthy graph", i)
		}
	}
	d := reg.Snapshot().Delta(mid)

	if got := d.Counter(obs.CReadGrant); got != 0 {
		t.Fatalf("phase delta counted %d reads from the previous phase", got)
	}
	if got := d.Counter(obs.CWriteGrant); got != 5 {
		t.Fatalf("phase delta writes = %d, want 5", got)
	}
	if got := d.Counter(obs.CReassignGrant); got != 0 {
		t.Fatalf("phase delta reassigns = %d, want 0", got)
	}
	if got := d.Hist(obs.HWriteMsgs).Count; got != 5 {
		t.Fatalf("phase delta write-round histogram count = %d, want 5", got)
	}
	// Gauges are instantaneous: the delta carries the current epoch (the
	// version the install moved to), not a difference.
	want := c.NodeVersion(0)
	if got := d.Gauge(obs.GQuorumEpoch); got != want {
		t.Fatalf("quorum epoch gauge = %d, want installed version %d", got, want)
	}
}

// normalizeSeq strips the global sequence numbers so event streams from
// differently-interleaved emitters can be compared structurally.
func normalizeSeq(evs []obs.Event) []obs.Event {
	out := make([]obs.Event, len(evs))
	for i, e := range evs {
		e.Seq = 0
		out[i] = e
	}
	return out
}

// TestDecisionTraceCrosscheck runs the identical idealized operation script
// against both runtimes and compares the decision-level event streams
// (grants, denies, installs). Message-level events are runtime-specific;
// decisions are not — both runtimes must collect the same votes and assign
// the same stamps.
func TestDecisionTraceCrosscheck(t *testing.T) {
	const n = 5
	script := func(rt interface {
		Read(x int) (int64, int64, bool)
		Write(x int, value int64) bool
		Reassign(x int, a quorum.Assignment) error
	}) {
		for i := 0; i < 40; i++ {
			x := i % n
			switch i % 4 {
			case 0, 1:
				rt.Read(x)
			case 2:
				rt.Write(x, int64(100+i))
			default:
				qr := 2 + i%2 // alternate 2 and 3 so some reassigns install
				if err := rt.Reassign(x, quorum.Assignment{QR: qr, QW: n + 1 - qr}); err != nil {
					t.Fatalf("reassign %d: %v", i, err)
				}
			}
		}
	}
	decisions := []obs.EventType{obs.EvQuorumGrant, obs.EvQuorumDeny, obs.EvReassignInstall}

	detReg := obs.NewTracing(obs.DefaultTraceCap)
	{
		st := graph.NewState(graph.Complete(n), nil)
		c, err := New(st, quorum.Majority(n))
		if err != nil {
			t.Fatal(err)
		}
		c.SetObserver(detReg)
		script(c)
	}

	asyncReg := obs.NewTracing(obs.DefaultTraceCap)
	{
		st := graph.NewState(graph.Complete(n), nil)
		a, err := NewAsync(st, quorum.Majority(n))
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		a.SetObserver(asyncReg)
		script(a)
	}

	det := normalizeSeq(detReg.Trace().Filter(decisions...))
	asy := normalizeSeq(asyncReg.Trace().Filter(decisions...))
	if !reflect.DeepEqual(det, asy) {
		max := len(det)
		if len(asy) > max {
			max = len(asy)
		}
		for i := 0; i < max; i++ {
			var d, a any
			if i < len(det) {
				d = det[i]
			}
			if i < len(asy) {
				a = asy[i]
			}
			if !reflect.DeepEqual(d, a) {
				t.Errorf("decision %d: deterministic %+v vs async %+v", i, d, a)
			}
		}
		t.Fatalf("decision streams diverged (%d vs %d events)", len(det), len(asy))
	}
}
