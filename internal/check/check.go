// Package check model-checks the quorum consensus + QR reassignment
// protocol by explicit state-space exploration: starting from the all-up
// initial state it applies every possible transition (site/link failure
// and repair, read, write, reassignment to each candidate assignment) and
// verifies the safety invariants in every reachable state:
//
//	I1 (single writer): at most one component can grant writes;
//	I2 (reads-latest):  every component that can grant a read holds a
//	                    copy of the globally most recent committed write.
//
// The exploration drives the *real* replica implementation (via Clone), so
// a bug in the shipped protocol code — not in a model of it — is what the
// checker would find. Stamps are canonicalized to order-preserving ranks
// and reassignment versions are capped, which makes the reachable space
// finite; the randomized storm tests sample this space, the checker covers
// it exhaustively for small networks.
package check

import (
	"fmt"
	"slices"
	"strings"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/replica"
)

// Protocol abstracts the object under exploration so a deliberately broken
// implementation can be substituted to validate the checker itself.
type Protocol interface {
	// Clone returns an independent copy bound to st.
	Clone(st *graph.State) Protocol
	// Read attempts a read at site x, returning the stamp it would return.
	Read(x int) (stamp int64, granted bool)
	// Write attempts a write at site x.
	Write(x int, value int64) bool
	// Reassign attempts a QR reassignment at site x.
	Reassign(x int, a quorum.Assignment) error
	// LatestStamp is the globally most recent committed write.
	LatestStamp() int64
	// WriteCapableComponents counts components that would grant a write.
	WriteCapableComponents() int
	// Copy is site i's copy; the explorer builds its canonical state
	// encoding and applies the version cap from the copies.
	Copy(i int) quorum.Copy
}

// QRAdapter wraps the real replica.Object as a Protocol.
type QRAdapter struct{ Obj *replica.Object }

// Clone implements Protocol.
func (q QRAdapter) Clone(st *graph.State) Protocol {
	return QRAdapter{Obj: q.Obj.Clone(st)}
}

// Read implements Protocol.
func (q QRAdapter) Read(x int) (int64, bool) {
	_, stamp, ok := q.Obj.Read(x)
	return stamp, ok
}

// Write implements Protocol.
func (q QRAdapter) Write(x int, v int64) bool { return q.Obj.Write(x, v) }

// Reassign implements Protocol.
func (q QRAdapter) Reassign(x int, a quorum.Assignment) error { return q.Obj.Reassign(x, a) }

// LatestStamp implements Protocol.
func (q QRAdapter) LatestStamp() int64 { return q.Obj.LatestStamp() }

// WriteCapableComponents implements Protocol.
func (q QRAdapter) WriteCapableComponents() int { return q.Obj.WriteCapableComponents() }

// Copy implements Protocol.
func (q QRAdapter) Copy(i int) quorum.Copy { return q.Obj.Copy(i) }

// Violation is a safety failure found during exploration.
type Violation struct {
	Invariant string
	Depth     int
	Path      []string
}

// Error implements the error interface.
func (v *Violation) Error() string {
	return fmt.Sprintf("check: %s violated at depth %d after %v", v.Invariant, v.Depth, v.Path)
}

// Config bounds the exploration.
type Config struct {
	// Assignments the reassignment transition may install.
	Assignments []quorum.Assignment
	// VersionCap stops reassignments once the effective version reaches
	// this value, keeping the state space finite.
	VersionCap int64
	// MaxStates aborts runaway explorations.
	MaxStates int
}

// DefaultConfig returns bounds suitable for 3–4 site networks.
func DefaultConfig(T int) Config {
	return Config{
		Assignments: []quorum.Assignment{
			quorum.Majority(T),
			quorum.ReadOneWriteAll(T),
		},
		VersionCap: 3,
		MaxStates:  2_000_000,
	}
}

type node struct {
	st    *graph.State
	proto Protocol
	depth int
	trace []string
}

// Explore runs the exhaustive search from the all-up initial state of g
// with the protocol bound to it. It returns the number of distinct states
// visited, or the first violation found.
func Explore(g *graph.Graph, mk func(st *graph.State) Protocol, cfg Config) (int, error) {
	st0 := graph.NewState(g, nil)
	root := node{st: st0, proto: mk(st0), depth: 0}

	seen := map[string]bool{}
	frontier := []node{root}
	visited := 0

	encode := func(nd node) string {
		var b strings.Builder
		for i := 0; i < g.N(); i++ {
			if nd.st.SiteUp(i) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte('|')
		for l := 0; l < g.M(); l++ {
			if nd.st.LinkUp(l) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte('|')
		encodeCopies(&b, nd.proto, g.N())
		return b.String()
	}
	seen[encode(root)] = true

	checkInvariants := func(nd node) error {
		if wc := nd.proto.WriteCapableComponents(); wc > 1 {
			return &Violation{Invariant: fmt.Sprintf("I1 single-writer (%d write-capable components)", wc),
				Depth: nd.depth, Path: nd.trace}
		}
		for x := 0; x < g.N(); x++ {
			// Probe reads on a clone so sync side effects do not leak into
			// the canonical state... they are semantically harmless (sync
			// is always allowed), but keeping probes pure keeps the space
			// smaller.
			cst := nd.st.Clone()
			cp := nd.proto.Clone(cst)
			if stamp, ok := cp.Read(x); ok && stamp != cp.LatestStamp() {
				return &Violation{
					Invariant: fmt.Sprintf("I2 reads-latest (site %d read stamp %d, latest %d)",
						x, stamp, cp.LatestStamp()),
					Depth: nd.depth, Path: nd.trace,
				}
			}
		}
		return nil
	}

	if err := checkInvariants(root); err != nil {
		return visited, err
	}

	succ := func(nd node, label string, apply func(st *graph.State, p Protocol)) (node, bool) {
		cst := nd.st.Clone()
		cp := nd.proto.Clone(cst)
		apply(cst, cp)
		child := node{st: cst, proto: cp, depth: nd.depth + 1}
		key := encode(child)
		if seen[key] {
			return node{}, false
		}
		seen[key] = true
		child.trace = append(append([]string(nil), nd.trace...), label)
		if len(child.trace) > 12 {
			child.trace = child.trace[len(child.trace)-12:]
		}
		return child, true
	}

	for len(frontier) > 0 {
		nd := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		visited++
		if visited > cfg.MaxStates {
			return visited, fmt.Errorf("check: state budget %d exhausted", cfg.MaxStates)
		}

		var children []node
		add := func(label string, apply func(st *graph.State, p Protocol)) {
			if child, fresh := succ(nd, label, apply); fresh {
				children = append(children, child)
			}
		}
		for i := 0; i < g.N(); i++ {
			i := i
			if nd.st.SiteUp(i) {
				add(fmt.Sprintf("fail-site %d", i), func(st *graph.State, p Protocol) { st.FailSite(i) })
			} else {
				add(fmt.Sprintf("repair-site %d", i), func(st *graph.State, p Protocol) { st.RepairSite(i) })
			}
		}
		for l := 0; l < g.M(); l++ {
			l := l
			if nd.st.LinkUp(l) {
				add(fmt.Sprintf("fail-link %d", l), func(st *graph.State, p Protocol) { st.FailLink(l) })
			} else {
				add(fmt.Sprintf("repair-link %d", l), func(st *graph.State, p Protocol) { st.RepairLink(l) })
			}
		}
		for x := 0; x < g.N(); x++ {
			x := x
			add(fmt.Sprintf("write %d", x), func(st *graph.State, p Protocol) { p.Write(x, 1) })
			add(fmt.Sprintf("read %d", x), func(st *graph.State, p Protocol) { p.Read(x) })
			for ai, a := range cfg.Assignments {
				a := a
				add(fmt.Sprintf("reassign %d→#%d", x, ai), func(st *graph.State, p Protocol) { _ = p.Reassign(x, a) })
			}
		}
		for _, child := range children {
			if err := checkInvariants(child); err != nil {
				return visited, err
			}
			// Version cap: a child past it is checked but not explored
			// further, which keeps the reachable space finite.
			if maxVersion(child.proto, g.N()) <= cfg.VersionCap {
				frontier = append(frontier, child)
			}
		}
	}
	return visited, nil
}

// encodeCopies appends the canonical encoding of p's copies to b: per copy
// (stamp rank, version, assignment), stamps renamed to order-preserving
// ranks so histories differing only by absolute stamp values collapse.
func encodeCopies(b *strings.Builder, p Protocol, n int) {
	stamps := map[int64]int{p.LatestStamp(): 0}
	for i := 0; i < n; i++ {
		stamps[p.Copy(i).Stamp] = 0
	}
	keys := make([]int64, 0, len(stamps))
	for s := range stamps {
		keys = append(keys, s)
	}
	slices.Sort(keys)
	for rank, s := range keys {
		stamps[s] = rank
	}
	fmt.Fprintf(b, "L%d|", stamps[p.LatestStamp()])
	for i := 0; i < n; i++ {
		c := p.Copy(i)
		fmt.Fprintf(b, "%d:%d:%d/%d;", stamps[c.Stamp], c.Version, c.QR, c.QW)
	}
}

// maxVersion is the highest assignment version any of p's n copies holds.
func maxVersion(p Protocol, n int) int64 {
	var mx int64
	for i := 0; i < n; i++ {
		mx = max(mx, p.Copy(i).Version)
	}
	return mx
}

// ExploreQR explores the real QR implementation with the given initial
// assignment.
func ExploreQR(g *graph.Graph, initial quorum.Assignment, cfg Config) (int, error) {
	return Explore(g, func(st *graph.State) Protocol {
		obj, err := replica.NewObject(st, initial)
		if err != nil {
			panic(err)
		}
		return QRAdapter{Obj: obj}
	}, cfg)
}
