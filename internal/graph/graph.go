// Package graph provides the network substrate for the simulation study: an
// undirected graph of sites and bidirectional links, together with a mutable
// State that tracks which sites and links are up and maintains the connected
// components (and their vote totals) incrementally as failures and repairs
// occur.
//
// The model follows the paper's §5.1: links fail by failing to transmit,
// sites are fail-stop, and failures/repairs are instantaneous, so the only
// observable effect of failures is the partition they induce.
package graph

import "fmt"

// Edge is an undirected link between two sites.
type Edge struct {
	U, V int
}

// Graph is an immutable undirected graph over sites 0..N-1. Parallel edges
// and self-loops are rejected, matching the paper's network model.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]halfEdge // adj[u] lists (neighbor, edge index)
	set   map[[2]int]int
}

type halfEdge struct {
	to   int
	edge int
}

// NewGraph returns an empty graph over n sites. It panics if n <= 0.
func NewGraph(n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("graph: NewGraph n=%d", n))
	}
	return &Graph{
		n:   n,
		adj: make([][]halfEdge, n),
		set: make(map[[2]int]int),
	}
}

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// AddEdge adds an undirected link between u and v and returns its index.
// It panics on self-loops, duplicate edges, or out-of-range sites.
func (g *Graph) AddEdge(u, v int) int {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at site %d", u))
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	key := edgeKey(u, v)
	if _, dup := g.set[key]; dup {
		panic(fmt.Sprintf("graph: duplicate edge (%d,%d)", u, v))
	}
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v})
	g.adj[u] = append(g.adj[u], halfEdge{to: v, edge: idx})
	g.adj[v] = append(g.adj[v], halfEdge{to: u, edge: idx})
	g.set[key] = idx
	return idx
}

// HasEdge reports whether a link between u and v exists.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.set[edgeKey(u, v)]
	return ok
}

// EdgeIndex returns the index of the link between u and v, or -1.
func (g *Graph) EdgeIndex(u, v int) int {
	if idx, ok := g.set[edgeKey(u, v)]; ok {
		return idx
	}
	return -1
}

// N returns the number of sites.
func (g *Graph) N() int { return g.n }

// M returns the number of links.
func (g *Graph) M() int { return len(g.edges) }

// Degree returns the number of links incident to site u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Ring returns a cycle over n sites: i — (i+1) mod n. It panics if n < 3.
func Ring(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: Ring n=%d (need >= 3)", n))
	}
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// Complete returns the complete graph K_n with n(n-1)/2 links.
func Complete(n int) *Graph {
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Star returns a star with site 0 as the hub.
func Star(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: Star n=%d (need >= 2)", n))
	}
	g := NewGraph(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// Path returns a simple path 0 — 1 — ... — n-1.
func Path(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Grid returns a rows×cols lattice with 4-neighborhood links.
func Grid(rows, cols int) *Graph {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("graph: Grid %dx%d", rows, cols))
	}
	g := NewGraph(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}
