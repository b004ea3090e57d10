package coterie

import (
	"errors"
	"testing"

	"quorumkit/internal/quorum"
)

// The explicit-set constructors the expressions replaced, kept as reference
// implementations: each builds its family the way the literature writes it
// down — as a list of site sets — and the tests below require the
// expressions to have exactly these minimal quorums and to grant exactly
// the same site sets.

// oracleMinimize removes duplicate groups and groups that are supersets of
// other groups, returning the minimal antichain with identical grant
// behaviour.
func oracleMinimize(groups []quorum.Group) []quorum.Group {
	seen := map[quorum.Group]bool{}
	var uniq []quorum.Group
	for _, g := range groups {
		if !seen[g] {
			seen[g] = true
			uniq = append(uniq, g)
		}
	}
	var out []quorum.Group
	for i, g := range uniq {
		minimal := true
		for j, h := range uniq {
			if i != j && h.Subset(g) && h != g {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, g)
		}
	}
	return out
}

// oracleGrid lists the grid protocol's groups: reads are all column covers
// (one site per column), writes a full column plus a cover, minimized.
func oracleGrid(rows, cols int) (reads, writes []quorum.Group) {
	site := func(r, c int) int { return r*cols + c }
	var buildCover func(c int, acc quorum.Group)
	buildCover = func(c int, acc quorum.Group) {
		if c == cols {
			reads = append(reads, acc)
			return
		}
		for r := 0; r < rows; r++ {
			buildCover(c+1, acc|quorum.NewGroup(site(r, c)))
		}
	}
	buildCover(0, 0)
	for c := 0; c < cols; c++ {
		var column quorum.Group
		for r := 0; r < rows; r++ {
			column |= quorum.NewGroup(site(r, c))
		}
		for _, cover := range reads {
			writes = append(writes, column|cover)
		}
	}
	return reads, oracleMinimize(writes)
}

// oracleTree lists the tree protocol's groups for the subtree rooted at
// `root` with `levels` levels below it (not minimized).
func oracleTree(root, levels int) []quorum.Group {
	self := quorum.NewGroup(root)
	if levels == 0 {
		return []quorum.Group{self}
	}
	left := oracleTree(2*root+1, levels-1)
	right := oracleTree(2*root+2, levels-1)
	var out []quorum.Group
	// Root present: root + a quorum of either subtree.
	for _, l := range left {
		out = append(out, self|l)
	}
	for _, r := range right {
		out = append(out, self|r)
	}
	// Root absent: a quorum of both subtrees.
	for _, l := range left {
		for _, r := range right {
			out = append(out, l|r)
		}
	}
	return out
}

// oracleFano lists the seven lines of the Fano plane.
func oracleFano() []quorum.Group {
	return []quorum.Group{
		quorum.NewGroup(0, 1, 2), quorum.NewGroup(0, 3, 4), quorum.NewGroup(0, 5, 6),
		quorum.NewGroup(1, 3, 5), quorum.NewGroup(1, 4, 6),
		quorum.NewGroup(2, 3, 6), quorum.NewGroup(2, 4, 5),
	}
}

// minimalGroups returns an expression's minimal quorums as Groups.
func minimalGroups(t *testing.T, e quorum.Expr) []quorum.Group {
	t.Helper()
	sets, ok := e.MinimalQuorums(0)
	if !ok {
		t.Fatal("unlimited enumeration reported incomplete")
	}
	out := make([]quorum.Group, len(sets))
	for i, s := range sets {
		out[i] = quorum.NewGroup(s...)
	}
	return out
}

// assertMatchesOracle requires e to have exactly the oracle's minimal
// quorums and to grant exactly the same subsets of [0, n).
func assertMatchesOracle(t *testing.T, name string, e quorum.Expr, oracle []quorum.Group, n int) {
	t.Helper()
	want := map[quorum.Group]bool{}
	for _, g := range oracleMinimize(oracle) {
		want[g] = true
	}
	got := minimalGroups(t, e)
	if len(got) != len(want) {
		t.Fatalf("%s: %d minimal quorums, oracle has %d", name, len(got), len(want))
	}
	for _, g := range got {
		if !want[g] {
			t.Fatalf("%s: quorum %v not in the oracle", name, g.Sites())
		}
	}
	for up := quorum.Group(0); up < 1<<uint(n); up++ {
		grant := false
		for _, g := range oracle {
			if g.Subset(up) {
				grant = true
				break
			}
		}
		if e.Holds(up) != grant {
			t.Fatalf("%s: up=%v: Holds=%v, oracle grants %v", name, up.Sites(), e.Holds(up), grant)
		}
	}
}

// TestExpressionsMatchExplicitSets: every grid of at most 16 sites, every
// tree of depth ≤ 3 and the Fano plane agree with their explicit group
// lists on minimal sets and on every subset's grant.
func TestExpressionsMatchExplicitSets(t *testing.T) {
	for rows := 1; rows <= 16; rows++ {
		for cols := 1; rows*cols <= 16; cols++ {
			s, err := Grid(rows, cols)
			if err != nil {
				t.Fatalf("grid %dx%d: %v", rows, cols, err)
			}
			reads, writes := oracleGrid(rows, cols)
			assertMatchesOracle(t, "grid reads", s.Read, reads, rows*cols)
			assertMatchesOracle(t, "grid writes", s.Write, writes, rows*cols)
		}
	}
	for depth := 0; depth <= 3; depth++ {
		s, err := TreeSystem(depth)
		if err != nil {
			t.Fatalf("tree depth %d: %v", depth, err)
		}
		assertMatchesOracle(t, "tree", s.Write, oracleTree(0, depth), 1<<uint(depth+1)-1)
	}
	assertMatchesOracle(t, "fano", FanoPlane(), oracleFano(), 7)
}

// TestFromQuorumsFortySites: the induced system of 40 one-vote sites at
// (1, 40) has 40 read quorums and 1 write quorum and is built at once. The
// explicit-subset induction this replaced allocated 2⁴⁰ bools (1 TiB) here,
// and at 64 sites 1<<64 == 0 made it return a silently empty coterie.
//
// The other constructor that outgrows enumeration is the depth-4 tree:
// 65,535 minimal quorums. TreeQuorums(4) builds and evaluates; TreeSystem(4)
// is declined by Validate with the typed error rather than compared
// pairwise (2·10⁹ pairs).
func TestFromQuorumsFortySites(t *testing.T) {
	s, err := FromQuorums(quorum.UniformVotes(40), quorum.Assignment{QR: 1, QW: 40})
	if err != nil {
		t.Fatal(err)
	}
	if r, w := minimalGroups(t, s.Read), minimalGroups(t, s.Write); len(r) != 40 || len(w) != 1 {
		t.Fatalf("%d read / %d write quorums, want 40 / 1", len(r), len(w))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !s.Read.Holds(quorum.NewGroup(39)) || s.Write.Holds(1<<39-1) || !s.Write.Holds(1<<40-1) {
		t.Fatal("40-site ROWA grants")
	}
	if _, err := FromQuorums(quorum.UniformVotes(64), quorum.Assignment{QR: 1, QW: 64}); err != nil {
		t.Fatal(err)
	}

	tree4, err := TreeQuorums(4)
	if err != nil {
		t.Fatal(err)
	}
	if !tree4.Holds(quorum.NewGroup(0, 1, 3, 7, 15)) || tree4.Holds(quorum.NewGroup(0, 1, 3, 7)) {
		t.Fatal("depth-4 root-to-leaf path grants")
	}
	if _, err := TreeSystem(4); !errors.Is(err, quorum.ErrUndecided) {
		t.Fatalf("TreeSystem(4): err=%v, want quorum.ErrUndecided", err)
	}
}
