package strategy

import "testing"

// benchLadder times one rung of the solve ladder: a certified
// resilient-capacity solve (f alternating 0/1) at 5% target gap, exactly
// the operation the daemon runs on a suspicion edge.
func benchLadder(b *testing.B, n int) {
	// The end-to-end solve-ladder workload draws its systems exactly as
	// uniformSystem does: unit votes, seeded heterogeneous capacities.
	systems := make([]System, 8)
	for i := range systems {
		systems[i] = uniformSystem(n, uint64(100*n+i))
	}
	fr := SingleFr(0.75)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := OptimizeResilientCapacity(systems[i%len(systems)], fr, i%2, Options{TargetGap: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Certify(genTol); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLadder9(b *testing.B)  { benchLadder(b, 9) }
func BenchmarkLadder11(b *testing.B) { benchLadder(b, 11) }
func BenchmarkLadder31(b *testing.B) { benchLadder(b, 31) }
