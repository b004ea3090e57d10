package dist

import (
	"math"
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/rng"
)

func uniformSlice(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestRingHeteroMatchesHomogeneous(t *testing.T) {
	for _, n := range []int{3, 5, 8, 21} {
		for _, p := range []float64{0.5, 0.9, 0.96} {
			for _, r := range []float64{0.5, 0.9, 1} {
				want := Ring(n, p, r)
				got := RingHetero(uniformSlice(n, p), uniformSlice(n, r))
				for i := 0; i < n; i++ {
					for v := 0; v <= n; v++ {
						if math.Abs(got[i][v]-want[v]) > 1e-9 {
							t.Fatalf("n=%d p=%g r=%g site %d: f(%d)=%.12f, homogeneous %.12f",
								n, p, r, i, v, got[i][v], want[v])
						}
					}
				}
			}
		}
	}
}

func TestRingHeteroMatchesExact(t *testing.T) {
	// Heterogeneous 6-ring checked against exhaustive enumeration. Exact
	// does not support per-component reliabilities, so enumerate by hand.
	n := 6
	ps := []float64{0.9, 0.8, 0.95, 0.7, 0.85, 0.99}
	rs := []float64{0.9, 0.6, 0.8, 0.95, 0.7, 0.85}
	got := RingHetero(ps, rs)

	g := graph.Ring(n)
	st := graph.NewState(g, nil)
	want := make([]PMF, n)
	for i := range want {
		want[i] = make(PMF, n+1)
	}
	total := 1 << uint(2*n)
	for mask := 0; mask < total; mask++ {
		prob := 1.0
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				prob *= ps[i]
				st.RepairSite(i)
			} else {
				prob *= 1 - ps[i]
				st.FailSite(i)
			}
		}
		for l := 0; l < n; l++ {
			// graph.Ring adds links in order i—(i+1), so link l has
			// reliability rs[l].
			if mask&(1<<uint(n+l)) != 0 {
				prob *= rs[l]
				st.RepairLink(l)
			} else {
				prob *= 1 - rs[l]
				st.FailLink(l)
			}
		}
		for i := 0; i < n; i++ {
			want[i][st.VotesAt(i)] += prob
		}
	}
	for i := 0; i < n; i++ {
		for v := 0; v <= n; v++ {
			if math.Abs(got[i][v]-want[i][v]) > 1e-9 {
				t.Fatalf("site %d f(%d) = %.12f, enumeration %.12f", i, v, got[i][v], want[i][v])
			}
		}
	}
}

func TestRingHeteroSumsToOne(t *testing.T) {
	src := rng.New(404)
	for trial := 0; trial < 30; trial++ {
		n := 3 + src.Intn(20)
		ps := make([]float64, n)
		rs := make([]float64, n)
		for i := range ps {
			ps[i] = 0.3 + 0.7*src.Float64()
			rs[i] = 0.3 + 0.7*src.Float64()
		}
		for i, f := range RingHetero(ps, rs) {
			if err := f.Validate(1e-9); err != nil {
				t.Fatalf("trial %d site %d: %v", trial, i, err)
			}
		}
	}
}

func TestRingHeteroPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { RingHetero(uniformSlice(2, 0.9), uniformSlice(2, 0.9)) },
		func() { RingHetero(uniformSlice(5, 0.9), uniformSlice(4, 0.9)) },
		func() { RingHetero(uniformSlice(5, 1.5), uniformSlice(5, 0.9)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkRingHetero101(b *testing.B) {
	ps := uniformSlice(101, 0.96)
	rs := uniformSlice(101, 0.96)
	for i := 0; i < b.N; i++ {
		_ = RingHetero(ps, rs)
	}
}
