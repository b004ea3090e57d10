package graph

import "fmt"

// State tracks the up/down status of every site and link of a Graph and
// maintains the connected components over *up* sites and *up* links, along
// with the total votes present in each component.
//
// Components are identified by a representative site (the member with the
// smallest index). Down sites belong to no component; the paper regards a
// down site as a component of size (and vote count) zero.
//
// Updates are incremental, and each does the least that proves the answer.
// A failure searches only until the component is shown to be still in one
// piece — the other endpoint of a failed link, or every live neighbour of a
// failed site, reached some other way — and then has nothing to relabel; it
// labels only on a real split. A repair merges by relabeling, and a repaired
// site that touches a single component with a smaller representative just
// adopts its label. Recompute (explore from scratch) is the ground truth the
// oracle tests hold every shortcut to.
type State struct {
	g      *Graph
	votes  []int
	siteUp []bool
	linkUp []bool

	comp      []int // representative site of each site's component; -1 if down
	compVotes []int // indexed by representative site
	compSize  []int // indexed by representative site

	// Search scratch. mark[v] == gen: v was reached by the current search;
	// want[v] == gen: v is one of the sites the current search must reach.
	queue []int
	mark  []int
	want  []int
	gen   int
}

// NewState returns a State in which every site and link is up. votes[i] is
// the number of votes held by site i; pass nil for one vote per site.
func NewState(g *Graph, votes []int) *State {
	if votes == nil {
		votes = make([]int, g.N())
		for i := range votes {
			votes[i] = 1
		}
	}
	if len(votes) != g.N() {
		panic(fmt.Sprintf("graph: NewState votes length %d, want %d", len(votes), g.N()))
	}
	for i, v := range votes {
		if v < 0 {
			panic(fmt.Sprintf("graph: negative votes %d at site %d", v, i))
		}
	}
	s := &State{
		g:         g,
		votes:     append([]int(nil), votes...),
		siteUp:    make([]bool, g.N()),
		linkUp:    make([]bool, g.M()),
		comp:      make([]int, g.N()),
		compVotes: make([]int, g.N()),
		compSize:  make([]int, g.N()),
		queue:     make([]int, 0, g.N()),
		mark:      make([]int, g.N()),
		want:      make([]int, g.N()),
	}
	for i := range s.siteUp {
		s.siteUp[i] = true
	}
	for i := range s.linkUp {
		s.linkUp[i] = true
	}
	s.Recompute()
	return s
}

// Graph returns the underlying immutable graph.
func (s *State) Graph() *Graph { return s.g }

// Clone returns an independent copy of the state sharing the immutable
// graph. Used by exhaustive protocol exploration.
func (s *State) Clone() *State {
	c := &State{
		g:         s.g,
		votes:     append([]int(nil), s.votes...),
		siteUp:    append([]bool(nil), s.siteUp...),
		linkUp:    append([]bool(nil), s.linkUp...),
		comp:      append([]int(nil), s.comp...),
		compVotes: append([]int(nil), s.compVotes...),
		compSize:  append([]int(nil), s.compSize...),
		queue:     make([]int, 0, s.g.N()),
		mark:      make([]int, s.g.N()),
		want:      make([]int, s.g.N()),
	}
	return c
}

// TotalVotes returns the sum of all votes in the system (T in the paper),
// independent of which sites are up.
func (s *State) TotalVotes() int {
	t := 0
	for _, v := range s.votes {
		t += v
	}
	return t
}

// Votes returns the vote assignment of site i.
func (s *State) Votes(i int) int { return s.votes[i] }

// SiteUp reports whether site i is operational.
func (s *State) SiteUp(i int) bool { return s.siteUp[i] }

// LinkUp reports whether link l is operational.
func (s *State) LinkUp(l int) bool { return s.linkUp[l] }

// ComponentOf returns the representative of site i's component, or -1 if
// the site is down.
func (s *State) ComponentOf(i int) int { return s.comp[i] }

// SameComponent reports whether up sites i and j can communicate.
func (s *State) SameComponent(i, j int) bool {
	return s.comp[i] != -1 && s.comp[i] == s.comp[j]
}

// VotesAt returns the total votes in the component containing site i, or 0
// if the site is down. This is the quantity "v" of the paper's f_i(v).
func (s *State) VotesAt(i int) int {
	rep := s.comp[i]
	if rep < 0 {
		return 0
	}
	return s.compVotes[rep]
}

// SizeAt returns the number of up sites in site i's component (0 if down).
func (s *State) SizeAt(i int) int {
	rep := s.comp[i]
	if rep < 0 {
		return 0
	}
	return s.compSize[rep]
}

// Members appends the sites of the component with representative rep to dst
// and returns it.
func (s *State) Members(rep int, dst []int) []int {
	for i, c := range s.comp {
		if c == rep {
			dst = append(dst, i)
		}
	}
	return dst
}

// Representatives appends the representative of every live component to dst
// and returns it.
func (s *State) Representatives(dst []int) []int {
	for i, c := range s.comp {
		if c == i {
			dst = append(dst, i)
		}
	}
	return dst
}

// NumComponents returns the number of live components.
func (s *State) NumComponents() int {
	n := 0
	for i, c := range s.comp {
		if c == i {
			n++
		}
	}
	return n
}

// MaxComponentVotes returns the largest vote total over live components
// (0 if every site is down). Used by the SURV metric.
func (s *State) MaxComponentVotes() int {
	best := 0
	for i, c := range s.comp {
		if c == i && s.compVotes[i] > best {
			best = s.compVotes[i]
		}
	}
	return best
}

// Recompute rebuilds all component information from scratch by BFS. It is
// the ground truth the incremental operations are tested against, and the
// fallback used after bulk state changes.
func (s *State) Recompute() {
	for i := range s.comp {
		s.comp[i] = -1
	}
	for i := 0; i < s.g.N(); i++ {
		if !s.siteUp[i] || s.comp[i] != -1 {
			continue
		}
		s.explore(i)
	}
}

// search BFSes from a live site over up links and up sites under the
// current generation and returns the reached set (in s.queue's storage).
// Sites the caller stamped in s.want with this generation are targets: once
// need of them have been reached the search stops and reports true. With no
// target stamped it runs to exhaustion and reports false.
func (s *State) search(start, need int) ([]int, bool) {
	gen := s.gen
	q := append(s.queue[:0], start)
	s.mark[start] = gen
	for head := 0; head < len(q); head++ {
		for _, h := range s.g.adj[q[head]] {
			if !s.linkUp[h.edge] || !s.siteUp[h.to] || s.mark[h.to] == gen {
				continue
			}
			s.mark[h.to] = gen
			q = append(q, h.to)
			if s.want[h.to] == gen {
				if need--; need == 0 {
					return q, true
				}
			}
		}
	}
	return q, false
}

// label makes members one component: labeled with its minimum member, votes
// and size recorded under that representative.
func (s *State) label(members []int) {
	rep := members[0]
	votes := 0
	for _, u := range members {
		votes += s.votes[u]
		if u < rep {
			rep = u
		}
	}
	for _, u := range members {
		s.comp[u] = rep
	}
	s.compVotes[rep] = votes
	s.compSize[rep] = len(members)
}

// explore BFSes from a live site over up links/sites, labeling the reached
// set with its minimum member and recording votes/size. All reached sites'
// comp entries are overwritten.
func (s *State) explore(start int) {
	s.gen++
	q, _ := s.search(start, 0)
	s.label(q)
}

// FailSite marks site i down and splits its component as needed.
// Failing an already-down site is a no-op.
func (s *State) FailSite(i int) {
	if !s.siteUp[i] {
		return
	}
	rep := s.comp[i]
	s.siteUp[i] = false
	s.comp[i] = -1
	// The rest of the component stays in one piece iff a search from one
	// live neighbour reaches all the others.
	s.gen++
	round := s.gen
	start, live := -1, 0
	for _, h := range s.g.adj[i] {
		if s.linkUp[h.edge] && s.siteUp[h.to] {
			s.want[h.to] = round // a Graph has no parallel links: each neighbour once
			start = h.to
			live++
		}
	}
	if live == 0 {
		return // i was a singleton
	}
	if live > 1 {
		if q, whole := s.search(start, live-1); !whole {
			// A real split: label the piece just searched, then explore from
			// each live neighbour no search of this round has reached.
			s.label(q)
			for _, h := range s.g.adj[i] {
				if s.linkUp[h.edge] && s.siteUp[h.to] && s.mark[h.to] < round {
					s.explore(h.to)
				}
			}
			return
		}
	}
	// Same members less i: same label unless i was the representative, in
	// which case the smallest remaining member (the first in index order)
	// takes over.
	votes, size := s.compVotes[rep]-s.votes[i], s.compSize[rep]-1
	if rep == i {
		rep = -1
		for j, c := range s.comp {
			if c == i {
				if rep < 0 {
					rep = j
				}
				s.comp[j] = rep
			}
		}
	}
	s.compVotes[rep] = votes
	s.compSize[rep] = size
}

// RepairSite marks site i up and merges it with every component reachable
// through its up links. Repairing an up site is a no-op.
func (s *State) RepairSite(i int) {
	if s.siteUp[i] {
		return
	}
	s.siteUp[i] = true
	// Touching exactly one component whose representative is smaller than i:
	// i joins it and nothing else changes.
	rep := -1
	for _, h := range s.g.adj[i] {
		if !s.linkUp[h.edge] || !s.siteUp[h.to] {
			continue
		}
		if c := s.comp[h.to]; rep == -1 {
			rep = c
		} else if c != rep {
			rep = -2 // bridges two or more components
			break
		}
	}
	if rep < 0 || rep > i {
		s.explore(i)
		return
	}
	s.comp[i] = rep
	s.compVotes[rep] += s.votes[i]
	s.compSize[rep]++
}

// FailLink marks link l down, splitting a component if l was a bridge.
// Failing a down link is a no-op.
func (s *State) FailLink(l int) {
	if !s.linkUp[l] {
		return
	}
	s.linkUp[l] = false
	e := s.g.edges[l]
	if !s.siteUp[e.U] || !s.siteUp[e.V] || s.comp[e.U] != s.comp[e.V] {
		return // link was dangling or already between components
	}
	// Search from U for V. Reaching it proves the component whole — same
	// members, representative and votes, nothing to relabel. Exhausting U's
	// side without it is a split into that side and V's.
	s.gen++
	s.want[e.V] = s.gen
	if q, whole := s.search(e.U, 1); !whole {
		s.label(q)
		s.explore(e.V)
	}
}

// RepairLink marks link l up, merging the components of its endpoints when
// both are up. Repairing an up link is a no-op.
func (s *State) RepairLink(l int) {
	if s.linkUp[l] {
		return
	}
	s.linkUp[l] = true
	e := s.g.edges[l]
	if !s.siteUp[e.U] || !s.siteUp[e.V] {
		return
	}
	ru, rv := s.comp[e.U], s.comp[e.V]
	if ru == rv {
		return
	}
	// Merge: relabel the smaller component into the other's representative.
	if s.compSize[ru] < s.compSize[rv] {
		ru, rv = rv, ru
	}
	// ru is the larger; fold rv into it, then fix the representative if rv's
	// members include a smaller index than ru.
	newRep := ru
	if rv < ru {
		newRep = rv
	}
	votes := s.compVotes[ru] + s.compVotes[rv]
	size := s.compSize[ru] + s.compSize[rv]
	for i, c := range s.comp {
		if c == rv || c == ru {
			s.comp[i] = newRep
		}
	}
	s.compVotes[newRep] = votes
	s.compSize[newRep] = size
}

// SetAll sets every site and link up (true) or down (false) and recomputes.
func (s *State) SetAll(up bool) {
	for i := range s.siteUp {
		s.siteUp[i] = up
	}
	for i := range s.linkUp {
		s.linkUp[i] = up
	}
	s.Recompute()
}
