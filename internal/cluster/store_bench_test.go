package cluster

import (
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

// BenchmarkWriteDurable measures a quorum write on a 9-ring with the
// durable engine attached (the default); BenchmarkWriteMemory is the
// same loop with persistence disabled. Their ratio is the store's
// whole-protocol-op overhead; `make bench-serve` runs the first.
func BenchmarkWriteDurable(b *testing.B) {
	c, _ := New(graph.NewState(graph.Ring(9), nil), quorum.Majority(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Write(i%9, int64(i)+1)
	}
}

func BenchmarkWriteMemory(b *testing.B) {
	c, _ := New(graph.NewState(graph.Ring(9), nil), quorum.Majority(9))
	c.DisablePersistence()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Write(i%9, int64(i)+1)
	}
}
