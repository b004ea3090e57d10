package quorum

import (
	"errors"
	"slices"
	"testing"

	"quorumkit/internal/rng"
)

// fromVotesOracle is the explicit-subset definition the pruned enumerator
// replaced: test every one of the 2ⁿ site sets against q and keep those
// that no single removal leaves at q. Reference implementation — slow and
// obviously correct; n ≤ 20 or so.
func fromVotesOracle(votes VoteAssignment, q int) []Group {
	n := len(votes)
	total := 1 << uint(n)
	meets := make([]bool, total)
	for m := 1; m < total; m++ {
		sum := 0
		for s := 0; s < n; s++ {
			if m&(1<<uint(s)) != 0 {
				sum += votes[s]
			}
		}
		meets[m] = sum >= q
	}
	var out []Group
	for m := 1; m < total; m++ {
		if !meets[m] {
			continue
		}
		minimal := true
		for s := 0; s < n && minimal; s++ {
			if m&(1<<uint(s)) != 0 && meets[m&^(1<<uint(s))] {
				minimal = false
			}
		}
		if minimal {
			out = append(out, Group(m))
		}
	}
	return out
}

func assertSameGroups(t *testing.T, e Expr, want []Group) {
	t.Helper()
	got := groupsOf(t, e)
	if len(got) != len(want) {
		t.Fatalf("%d minimal quorums, oracle has %d", len(got), len(want))
	}
	for _, g := range want {
		if !got[g] {
			t.Fatalf("oracle quorum %v missing", g.Sites())
		}
	}
}

// TestThresholdMatchesSubsetOracle sweeps a weighted 7-site assignment over
// every threshold: same minimal sets as the 2ⁿ oracle, and the same grant
// on every subset.
func TestThresholdMatchesSubsetOracle(t *testing.T) {
	votes := VoteAssignment{3, 2, 2, 1, 1, 0, 1}
	for q := 1; q <= votes.Total()+1; q++ {
		e := Threshold(votes, q)
		oracle := fromVotesOracle(votes, q)
		assertSameGroups(t, e, oracle)
		for up := Group(0); up < 1<<7; up++ {
			want := false
			for _, g := range oracle {
				want = want || g.Subset(up)
			}
			if e.Holds(up) != want {
				t.Fatalf("q=%d up=%v: Holds=%v, oracle %v", q, up.Sites(), e.Holds(up), want)
			}
		}
	}
}

// randomExpr draws an expression over sites [0, n): leaves are single sites
// or weighted thresholds, inner nodes Choose with 2–3 kids.
func randomExpr(src *rng.Source, n, depth int) Expr {
	switch c := src.Intn(6); {
	case depth == 0 || c == 0:
		return Site(src.Intn(n))
	case c == 1:
		return randomThreshold(src, n)
	default:
		kids := make([]Expr, 2+src.Intn(2))
		for i := range kids {
			kids[i] = randomExpr(src, n, depth-1)
		}
		return Choose(1+src.Intn(len(kids)), kids...)
	}
}

func randomThreshold(src *rng.Source, n int) Expr {
	votes := make(VoteAssignment, n)
	for i := range votes {
		votes[i] = src.Intn(4) // zero-vote sites included on purpose
	}
	votes[src.Intn(n)]++
	return Threshold(votes, 1+src.Intn(votes.Total()))
}

// checkExpr asserts the three operations agree with their definitions on
// every subset of [0, n).
func checkExpr(t *testing.T, read, write Expr, n int) {
	t.Helper()
	full := Group(1)<<uint(n) - 1
	for _, e := range []Expr{read, write} {
		qs, ok := e.MinimalQuorums(0)
		if !ok {
			t.Fatal("unlimited enumeration reported incomplete")
		}
		gs := make([]Group, len(qs))
		for i, q := range qs {
			if !slices.IsSorted(q) {
				t.Fatalf("quorum %v not sorted", q)
			}
			gs[i] = NewGroup(q...)
			for _, h := range gs[:i] {
				if h.Subset(gs[i]) || gs[i].Subset(h) {
					t.Fatalf("quorums %v and %v are not an antichain", h.Sites(), q)
				}
			}
		}
		for up := Group(0); up <= full; up++ {
			want := false
			for _, g := range gs {
				want = want || g.Subset(up)
			}
			if e.Holds(up) != want {
				t.Fatalf("up=%v: Holds=%v but minimal quorums %v say %v", up.Sites(), e.Holds(up), qs, want)
			}
			for s := 0; want && s < n; s++ {
				if !e.Holds(up | NewGroup(s)) {
					t.Fatalf("not monotone: holds on %v, not with site %d added", up.Sites(), s)
				}
			}
		}
	}

	// The all-subsets oracle: the system is safe iff both sides have a
	// quorum and no write-granting set has a write- or read-granting
	// complement.
	safe := read.Holds(full) && write.Holds(full)
	for up := Group(0); safe && up <= full; up++ {
		rest := full &^ up
		if write.Holds(up) && (write.Holds(rest) || read.Holds(rest)) {
			safe = false
		}
	}
	err := System{Read: read, Write: write}.Validate()
	pigeonhole := read.kind == exprThreshold && write.kind == exprThreshold && slices.Equal(read.votes, write.votes)
	switch {
	case errors.Is(err, ErrUndecided):
		// Declining is always allowed; it is never a verdict.
	case err == nil && !safe:
		t.Fatalf("Validate accepted a system with disjoint quorums")
	case err != nil && safe && !pigeonhole:
		// (The pigeonhole back-end is sufficient, not necessary.)
		t.Fatalf("pairwise Validate rejected a safe system: %v", err)
	}
}

func TestExprProperties(t *testing.T) {
	src := rng.New(0xE1)
	for trial := 0; trial < 300; trial++ {
		n := 1 + src.Intn(10)
		read, write := randomExpr(src, n, 3), randomExpr(src, n, 3)
		if trial%3 == 0 {
			// Make sure the shared-votes pigeonhole back-end is drawn too.
			read = randomThreshold(src, n)
			write = Threshold(read.votes, 1+src.Intn(read.votes.Total()))
		}
		checkExpr(t, read, write, n)
	}
}

func FuzzExpr(f *testing.F) {
	f.Add(uint64(1), uint8(3))
	f.Add(uint64(0x5EED), uint8(9))
	f.Add(uint64(42), uint8(10))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8) {
		n := 1 + int(nRaw)%10
		src := rng.New(seed)
		checkExpr(t, randomExpr(src, n, 3), randomExpr(src, n, 3), n)
	})
}

// majorityTree is the tree protocol's recursion (root and one subtree, or
// both subtrees = any two of the three) on a heap-numbered binary tree.
func majorityTree(root, levels int) Expr {
	if levels == 0 {
		return Site(root)
	}
	return Choose(2, Site(root), majorityTree(2*root+1, levels-1), majorityTree(2*root+2, levels-1))
}

// TestValidateNeverValidPastBound: a system whose minimal quorums exceed
// the pairwise bound is declined with ErrUndecided — whether or not it
// intersects — and bounded enumeration reports itself incomplete.
func TestValidateNeverValidPastBound(t *testing.T) {
	tree4 := majorityTree(0, 4) // 65,535 pairwise-intersecting quorums
	if err := coterie(tree4).Validate(); !errors.Is(err, ErrUndecided) {
		t.Fatalf("depth-4 tree: err=%v, want ErrUndecided", err)
	}
	if qs, ok := tree4.MinimalQuorums(validateBound); ok || qs != nil {
		t.Fatalf("bounded enumeration of the depth-4 tree returned %d sets, complete=%v", len(qs), ok)
	}
	if err := coterie(majorityTree(0, 3)).Validate(); err != nil {
		t.Fatalf("depth-3 tree (255 quorums) must be decided: %v", err)
	}

	// Two Thresholds over different vote vectors take the pairwise path;
	// C(20,10) = 184,756 read quorums is past the bound.
	a, b := UniformVotes(20), UniformVotes(20)
	b[0] = 2
	sys := System{Read: Threshold(a, 10), Write: Threshold(b, 12)}
	if err := sys.Validate(); !errors.Is(err, ErrUndecided) {
		t.Fatalf("mixed-votes thresholds: err=%v, want ErrUndecided", err)
	}
	// Over one vote vector the pigeonhole rule decides at any size, past
	// Group's 64 sites included.
	v := UniformVotes(151)
	if err := (System{Read: Threshold(v, 50), Write: Threshold(v, 102)}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (System{Read: Threshold(v, 50), Write: Threshold(v, 101)}).Validate(); err == nil || errors.Is(err, ErrUndecided) {
		t.Fatalf("q_r+q_w = T accepted or declined: %v", err)
	}
	// …but a composite cannot hold site 64 and up, so it declines.
	if err := coterie(Or(Threshold(v, 151))).Validate(); !errors.Is(err, ErrUndecided) {
		t.Fatalf("151-site threshold under Or: err=%v, want ErrUndecided", err)
	}
}
