// Package topo builds the topology family of the paper's simulation study:
// a ring of 101 sites plus i additional links ("chords") for
// i ∈ {0, 1, 2, 4, 16, 256, 4949}; i = 4949 completes the graph (the ring's
// 101 links plus 4949 chords give all 5050 pairs).
//
// The paper defers exact chord placement to its reference [14], which is
// not available; this package substitutes a deterministic placement that
// maximizes spread (documented in DESIGN.md §5): chords are enumerated
// longest-first by ring distance, and within one distance the starting
// points are spread around the ring by a fixed stride coprime to n. The
// qualitative results depend on connectivity density rather than exact
// chord endpoints, and the substitution spans the same density range from
// bare ring to fully connected.
package topo

import (
	"fmt"

	"quorumkit/internal/graph"
)

// Sites is the network size used throughout the paper's study.
const Sites = 101

// ChordCounts lists the paper's seven topologies, by number of chords
// added to the ring. Topology 4949 is fully connected.
var ChordCounts = []int{0, 1, 2, 4, 16, 256, 4949}

// MaxChords returns the number of distinct non-ring chords of an n-site
// ring: n(n−1)/2 total pairs minus the n ring links.
func MaxChords(n int) int { return n*(n-1)/2 - n }

// Chords returns the first `count` chords of the deterministic enumeration
// for an n-site ring. Chords are returned as site pairs (u, v), u < v.
func Chords(n, count int) [][2]int {
	if n < 5 {
		panic(fmt.Sprintf("topo: Chords n=%d (need >= 5 for any chord spread)", n))
	}
	if count < 0 || count > MaxChords(n) {
		panic(fmt.Sprintf("topo: count %d out of [0,%d] for n=%d", count, MaxChords(n), n))
	}
	// Stride ≈ n/φ gives low-discrepancy starting points; adjust to be
	// coprime with n so every start is visited exactly once.
	stride := int(float64(n) / 1.6180339887498949)
	for gcd(stride, n) != 1 {
		stride++
	}
	out := make([][2]int, 0, count)
	seen := make(map[[2]int]bool, count)
	for d := n / 2; d >= 2 && len(out) < count; d-- {
		for j := 0; j < n && len(out) < count; j++ {
			k := (j * stride) % n
			u, v := k, (k+d)%n
			if u > v {
				u, v = v, u
			}
			// Ring links have distance 1 by construction (d ≥ 2 excludes
			// them); even-n diametric chords appear twice in this loop.
			key := [2]int{u, v}
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, key)
		}
	}
	if len(out) < count {
		panic(fmt.Sprintf("topo: enumeration produced %d of %d chords", len(out), count))
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Build returns an n-site ring with the first `chords` chords added.
func Build(n, chords int) *graph.Graph {
	g := graph.Ring(n)
	for _, c := range Chords(n, chords) {
		g.AddEdge(c[0], c[1])
	}
	return g
}

// Paper returns the paper's "Topology i": a 101-site ring plus i chords.
// i must be one of ChordCounts; use Build for arbitrary counts.
func Paper(i int) *graph.Graph {
	for _, c := range ChordCounts {
		if c == i {
			return Build(Sites, i)
		}
	}
	panic(fmt.Sprintf("topo: %d is not one of the paper's chord counts %v", i, ChordCounts))
}

// Name returns the paper's name for the topology with i chords.
func Name(i int) string {
	if i == MaxChords(Sites) {
		return fmt.Sprintf("Topology %d (fully connected)", i)
	}
	if i == 0 {
		return "Topology 0 (ring)"
	}
	return fmt.Sprintf("Topology %d", i)
}

// Clusters returns a LAN/WAN-style topology: k fully-connected clusters of
// the given size (the LANs), with consecutive clusters joined by a single
// inter-cluster link forming a ring of clusters (the WAN). Sites are
// numbered cluster-major: cluster c holds sites c·size .. c·size+size−1,
// and the WAN links join site c·size to ((c+1) mod k)·size + size−1.
//
// This is the realistic deployment shape for the paper's algorithm:
// intra-cluster connectivity is excellent, while the WAN links are the
// partition points. Because they form a ring of clusters, no single WAN
// link failure partitions the network but any two do — the paper's bare
// ring, at cluster granularity.
func Clusters(k, size int) *graph.Graph {
	if k < 2 || size < 1 {
		panic(fmt.Sprintf("topo: Clusters k=%d size=%d", k, size))
	}
	g := graph.NewGraph(k * size)
	for c := 0; c < k; c++ {
		base := c * size
		for u := 0; u < size; u++ {
			for v := u + 1; v < size; v++ {
				g.AddEdge(base+u, base+v)
			}
		}
	}
	for c := 0; c < k; c++ {
		next := (c + 1) % k
		u := c * size
		v := next*size + size - 1
		if !g.HasEdge(u, v) { // k=2 with size=1 would duplicate
			g.AddEdge(u, v)
		}
	}
	return g
}
