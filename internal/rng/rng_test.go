package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: streams diverged: %d != %d", i, av, bv)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := New(SubSeed(7, 0))
	// A substream and its base stream must not emit identical streams.
	match := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			match++
		}
	}
	if match > 0 {
		t.Fatalf("parent and child matched %d/64 draws", match)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %g, want about 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) returned %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn(7): value %d drawn %d times in 70000, far from uniform", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nNoModuloBias(t *testing.T) {
	// Statistical check with a bound that is NOT a power of two.
	r := New(9)
	const bound = 3
	counts := make([]int, bound)
	const n = 300000
	for i := 0; i < n; i++ {
		counts[r.Uint64n(bound)]++
	}
	for v, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-1.0/bound) > 0.005 {
			t.Fatalf("Uint64n(%d): value %d frequency %g, want ~%g", bound, v, frac, 1.0/bound)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(13)
	const mean = 128.0
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp returned negative %g", v)
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("Exp mean = %g, want about %g", got, mean)
	}
}

func TestPoissonSmallLambda(t *testing.T) {
	r := New(19)
	const lambda = 3.5
	const n = 100000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := float64(r.Poisson(lambda))
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-lambda) > 0.05 {
		t.Fatalf("Poisson(%g) mean = %g", lambda, mean)
	}
	if math.Abs(variance-lambda) > 0.15 {
		t.Fatalf("Poisson(%g) variance = %g", lambda, variance)
	}
}

func TestPoissonLargeLambda(t *testing.T) {
	r := New(23)
	const lambda = 500.0
	const n = 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Poisson(lambda)
		if v < 0 {
			t.Fatalf("Poisson returned negative %d", v)
		}
		sum += float64(v)
	}
	mean := sum / n
	if math.Abs(mean-lambda)/lambda > 0.01 {
		t.Fatalf("Poisson(%g) mean = %g", lambda, mean)
	}
}

func TestPoissonZero(t *testing.T) {
	r := New(29)
	for i := 0; i < 100; i++ {
		if v := r.Poisson(0); v != 0 {
			t.Fatalf("Poisson(0) = %d", v)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(31)
	const mean, sd = 10.0, 2.0
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(mean, sd)
		sum += v
		sumsq += v * v
	}
	m := sum / n
	variance := sumsq/n - m*m
	if math.Abs(m-mean) > 0.02 {
		t.Fatalf("Norm mean = %g", m)
	}
	if math.Abs(variance-sd*sd) > 0.1 {
		t.Fatalf("Norm variance = %g, want %g", variance, sd*sd)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(37)
	for n := 0; n < 20; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestQuickUint64nInRange(t *testing.T) {
	r := New(41)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExpNonNegative(t *testing.T) {
	r := New(43)
	f := func(m float64) bool {
		mean := math.Abs(m)
		if mean == 0 || math.IsNaN(mean) || math.IsInf(mean, 0) {
			mean = 1
		}
		return r.Exp(mean) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Exp(128)
	}
	_ = sink
}

func BenchmarkPoissonSmall(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Poisson(5)
	}
	_ = sink
}

// TestReseedMatchesNew: Reseed must leave the source bit-identical to a
// fresh construction — the contract the simulator's Reset relies on.
func TestReseedMatchesNew(t *testing.T) {
	r := New(1)
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		for i := 0; i < 100; i++ {
			r.Uint64() // desynchronize before reseeding
		}
		r.Reseed(seed)
		fresh := New(seed)
		for i := 0; i < 1_000; i++ {
			if got, want := r.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("seed %d, draw %d: reseeded %#x, fresh %#x", seed, i, got, want)
			}
		}
	}
}

// TestSubSeedSubstreams: substream derivation is deterministic, and
// distinct indices give distinct, well-mixed seeds (consecutive indices
// must not produce correlated streams).
func TestSubSeedSubstreams(t *testing.T) {
	if SubSeed(7, 3) != SubSeed(7, 3) {
		t.Fatal("SubSeed is not deterministic")
	}
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10_000; i++ {
		s := SubSeed(99, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("indices %d and %d collide on %#x", j, i, s)
		}
		seen[s] = i
	}
	// Adjacent substreams diverge immediately.
	a, b := New(SubSeed(5, 0)), New(SubSeed(5, 1))
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent substreams shared %d of 64 draws", same)
	}
}

// TestSubSeedMatchesSplitMixStream: SubSeed(seed, i) must equal the i-th
// output of a SplitMix64 stream started at seed — the O(1) closed form and
// the sequential generator are the same function.
func TestSubSeedMatchesSplitMixStream(t *testing.T) {
	const gamma = 0x9e3779b97f4a7c15
	state := uint64(31)
	for i := uint64(0); i < 100; i++ {
		if got := SubSeed(31, i); got != mixCheck(state) {
			t.Fatalf("index %d: SubSeed %#x, stream %#x", i, got, mixCheck(state))
		}
		state += gamma
	}
}

// mixCheck is the SplitMix64 output function applied to one advanced
// state, duplicated here so the test fails if the production mixer drifts.
func mixCheck(state uint64) uint64 {
	z := state + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestSubSource: SubSource(seed, i) is exactly New(SubSeed(seed, i)) — the
// O(1) order-independent substream constructor the annealing restarts use —
// and distinct substreams of one base seed diverge immediately.
func TestSubSource(t *testing.T) {
	for _, i := range []uint64{0, 1, 2, 1 << 40} {
		a := SubSource(99, i)
		b := New(SubSeed(99, i))
		for k := 0; k < 16; k++ {
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("substream %d diverged from New(SubSeed) at step %d: %x vs %x", i, k, x, y)
			}
		}
	}
	if SubSource(99, 0).Uint64() == SubSource(99, 1).Uint64() {
		t.Fatal("substreams 0 and 1 start identically")
	}
}
