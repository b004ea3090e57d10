package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"quorumkit/internal/core"
	"quorumkit/internal/topo"
)

// streamHash folds (kind, idx, Float64bits(at)) of the next n events the
// simulator processes into FNV-1a, each as a little-endian 64-bit word.
func streamHash(s *Simulator, n int) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	for k := 0; k < n; k++ {
		e := s.heap.peek()
		binary.LittleEndian.PutUint64(buf[0:], uint64(e.kind))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e.idx))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(e.at))
		h.Write(buf[:])
		s.step()
	}
	return h.Sum64()
}

// TestEventStreamPinned pins the simulator's observable trajectory: the
// first 20 000 events for seed 1 on the paper's topologies 0, 16 and 256,
// with and without correlated shocks, under each attachment that changes
// what is scheduled or drawn. The constants were generated at the commit
// before the event queue and the connectivity updates were rebuilt, so any
// later change to either proves bit-identity here, without the benchmark:
// the pop order is the total order (at, seq), and nothing else about the
// queue is observable.
func TestEventStreamPinned(t *testing.T) {
	const events = 20_000
	want := map[string]uint64{
		"chords0/indep/sampled":         0xb85b10f4688ea4c6,
		"chords0/indep/tally":           0x6bbb40f5f90a427b,
		"chords0/indep/time-weighted":   0x384ef88c2eb47fb5,
		"chords0/shock/sampled":         0x8cbe6e9619358898,
		"chords0/shock/tally":           0x89859871536b230f,
		"chords0/shock/time-weighted":   0xcaf544048a0c9e6e,
		"chords16/indep/sampled":        0x46adda5aa8f0ed3e,
		"chords16/indep/tally":          0xaa438e0d418e4197,
		"chords16/indep/time-weighted":  0x8562f04862e01163,
		"chords16/shock/sampled":        0xb47a04fb2b29957d,
		"chords16/shock/tally":          0x03d3ac1896c421f6,
		"chords16/shock/time-weighted":  0x132f91de66773ad1,
		"chords256/indep/sampled":       0x9dbe46f1601b006d,
		"chords256/indep/tally":         0xc9c9ae9ff06ccf66,
		"chords256/indep/time-weighted": 0x7997e313f5435fef,
		"chords256/shock/sampled":       0x7df538566daf5285,
		"chords256/shock/tally":         0x5632e4f5fd75a69d,
		"chords256/shock/time-weighted": 0x1de6bbba50833df3,
	}
	seen := 0
	for _, chords := range []int{0, 16, 256} {
		g := topo.Paper(chords)
		for _, shock := range []bool{false, true} {
			p := PaperParams()
			shockName := "indep"
			if shock {
				p.Shock = &ShockParams{Mean: 40, Size: 5, Duration: 4}
				shockName = "shock"
			}
			for _, attach := range []string{"sampled", "tally", "time-weighted"} {
				name := fmt.Sprintf("chords%d/%s/%s", chords, shockName, attach)
				s := New(g, nil, p, 1)
				T := s.State().TotalVotes()
				switch attach {
				case "sampled":
					s.AttachEstimator(core.NewEstimator(g.N(), T))
				case "tally":
					s.setFamilyTally(newFamilyTally(T), 0.75)
				case "time-weighted":
					s.AttachTimeWeighted(core.NewEstimator(g.N(), T), core.NewSurvEstimator(T))
				}
				got := streamHash(s, events)
				w, ok := want[name]
				if !ok {
					t.Fatalf("%s: no pinned constant", name)
				}
				seen++
				if got != w {
					t.Errorf("%s: event stream hash %#016x, pinned %#016x", name, got, w)
				}
			}
		}
	}
	if seen != len(want) {
		t.Fatalf("ran %d configurations, pinned %d", seen, len(want))
	}
}
