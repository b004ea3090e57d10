package strategy

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// solveHash folds every bit of a solve's answer into one value: Value,
// Bound, the objective and duals, the pivot and generation counters, and
// each strategy quorum with its probability.
func solveHash(res *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(v float64) { put(math.Float64bits(v)) }
	putF(res.Value)
	putF(res.Bound)
	putF(res.Sol.Obj)
	put(uint64(res.Sol.Pivots))
	put(uint64(res.Rounds))
	put(uint64(res.Generated))
	for _, y := range res.Sol.Y {
		putF(y)
	}
	st := res.Strategy
	for _, side := range []struct {
		qs []Quorum
		ps []float64
	}{{st.ReadQuorums, st.ReadProbs}, {st.WriteQuorums, st.WriteProbs}} {
		put(uint64(len(side.qs)))
		for i, q := range side.qs {
			put(uint64(len(q)))
			for _, x := range q {
				put(uint64(x))
			}
			putF(side.ps[i])
		}
	}
	return h.Sum64()
}

// TestCapacitySolvesPinned pins the solver bit for bit: every pivot it takes
// shows up in Sol.Pivots, the duals or the strategy, so a change to how the
// LP is stored, built or priced that is meant to leave the arithmetic alone
// must leave every hash here alone. The systems span both solve paths: whole
// enumerated LPs at 5–9 sites, exact generation at 11–13 and generation to a
// 5% gap at 25–31, plus the case study's multi-atom capacity LPs and its
// latency LP. Never regenerate the constants to make a change pass; a
// change that is meant to move the optimizer's answers says so and
// regenerates them deliberately.
func TestCapacitySolvesPinned(t *testing.T) {
	want := map[string]uint64{
		"n5/f0/seed1":            0x9baed4a924c5303e,
		"n5/f0/seed2":            0x66416f31886e077c,
		"n5/f0/seed3":            0x6b31f153cf3b8e29,
		"n5/f1/seed1":            0xaa4f48e6faa2a9a0,
		"n5/f1/seed2":            0x03172f18e931e11b,
		"n5/f1/seed3":            0x7409d55da8acf28e,
		"n7/f0/seed1":            0x610cd649ab425a6a,
		"n7/f0/seed2":            0xff47d8ec9a4b8e24,
		"n7/f0/seed3":            0x2cb4ee83a147fa68,
		"n7/f1/seed1":            0x1f6f6e4ee75d4e16,
		"n7/f1/seed2":            0x69d5a2f1a2c89c13,
		"n7/f1/seed3":            0x99de52ebe4352a5b,
		"n9/f0/seed1":            0xeed0891422534ac4,
		"n9/f0/seed2":            0xa8bffac0c820760c,
		"n9/f0/seed3":            0xd922015315a39576,
		"n9/f1/seed1":            0xdd2b4a1b683d3830,
		"n9/f1/seed2":            0x1d56f5bd13c07ba6,
		"n9/f1/seed3":            0x7d854377d01ae6ec,
		"n11/f0/seed1":           0x2e33ed4da414f355,
		"n11/f0/seed2":           0xa35079fb11aa925e,
		"n11/f0/seed3":           0x369478504126c30b,
		"n11/f1/seed1":           0x17e58cbd219b4b4e,
		"n11/f1/seed2":           0xbea59e08c64df2aa,
		"n11/f1/seed3":           0x0354e1db7c2690b3,
		"n13/f0/seed1":           0x80d24dcf44e1cd01,
		"n13/f0/seed2":           0xe6c7f327a82bd360,
		"n13/f0/seed3":           0x0a71de803a8eb380,
		"n13/f1/seed1":           0xaba5a6b971b62e28,
		"n13/f1/seed2":           0x6c631bceebb9f29c,
		"n13/f1/seed3":           0xa686be3dc03320f2,
		"n25/f0/seed1":           0x530a88ef9e9d2792,
		"n25/f0/seed2":           0x707be685bfb87e56,
		"n25/f0/seed3":           0xb0172bccec35ba54,
		"n25/f1/seed1":           0x4b095ee900fa0fc4,
		"n25/f1/seed2":           0xd445068d65964343,
		"n25/f1/seed3":           0x6be110f8be3990cb,
		"n31/f0/seed1":           0xe12e3bda700da2b7,
		"n31/f0/seed2":           0xd03b1db10e3608b1,
		"n31/f0/seed3":           0x8e9ddd92e401ba00,
		"n31/f1/seed1":           0xf00f07cf161bde39,
		"n31/f1/seed2":           0xe441e64ca6341740,
		"n31/f1/seed3":           0x6c9ef1fcd7be8614,
		"case-study/f0":          0x768d491335090d6d,
		"case-study/f1":          0xc3ac7d47dd8d9b16,
		"case-study/two-atoms":   0xf9d7ee6a38c19b1b,
		"case-study/latency":     0x38352aa60f61d159,
		"n9/latency/three-atoms": 0x44ac89975fd21c3d,
	}
	type solve struct {
		name string
		run  func() (*Result, error)
	}
	var solves []solve
	ladder := SingleFr(0.75)
	for _, n := range []int{5, 7, 9, 11, 13, 25, 31} {
		for f := 0; f <= 1; f++ {
			for seed := uint64(1); seed <= 3; seed++ {
				sys := uniformSystem(n, uint64(100*n)+seed)
				solves = append(solves, solve{fmt.Sprintf("n%d/f%d/seed%d", n, f, seed), func() (*Result, error) {
					return OptimizeResilientCapacity(sys, ladder, f, Options{TargetGap: 0.05})
				}})
			}
		}
	}
	cs, csd := CaseStudySystem(), CaseStudyFrDist()
	twoAtoms, err := NewFrDist(map[float64]float64{0.8: 2, 0.5: 1})
	if err != nil {
		t.Fatal(err)
	}
	solves = append(solves,
		solve{"case-study/f0", func() (*Result, error) { return OptimizeCapacity(cs, csd, Options{}) }},
		solve{"case-study/f1", func() (*Result, error) { return OptimizeResilientCapacity(cs, csd, 1, Options{}) }},
		solve{"case-study/two-atoms", func() (*Result, error) { return OptimizeCapacity(cs, twoAtoms, Options{}) }},
		solve{"case-study/latency", func() (*Result, error) {
			return OptimizeLatency(cs, csd, CaseStudyLoadLimit())
		}},
		solve{"n9/latency/three-atoms", func() (*Result, error) {
			return OptimizeLatency(uniformSystem(9, 901), threeAtoms(t), 1)
		}},
	)
	for _, s := range solves {
		res, err := s.run()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if err := res.Certify(genTol); err != nil {
			t.Fatalf("%s: certificate rejected: %v", s.name, err)
		}
		got := solveHash(res)
		w, ok := want[s.name]
		if !ok {
			t.Fatalf("%s: no pinned constant", s.name)
		}
		if got != w {
			t.Fatalf("%s: solve hash %#016x, pinned %#016x: the solver's answer moved (first differing system)", s.name, got, w)
		}
	}
	if len(want) != len(solves) {
		t.Fatalf("ran %d solves, pinned %d", len(solves), len(want))
	}
}
