package coterie

import (
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

func TestTreeQuorumsDepth0(t *testing.T) {
	e, err := TreeQuorums(0)
	if err != nil {
		t.Fatal(err)
	}
	qs := minimalGroups(t, e)
	if len(qs) != 1 || qs[0] != quorum.NewGroup(0) {
		t.Fatalf("depth 0 quorums %v", qs)
	}
}

func TestTreeQuorumsDepth1(t *testing.T) {
	// 3 sites: quorums {0,1}, {0,2}, {1,2} — the majority coterie.
	e, err := TreeQuorums(1)
	if err != nil {
		t.Fatal(err)
	}
	if qs := minimalGroups(t, e); len(qs) != 3 {
		t.Fatalf("depth 1: %d quorums", len(qs))
	}
	if err := (quorum.System{Read: e, Write: e}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeQuorumsDepth2Properties(t *testing.T) {
	// 7 sites. The minimal failure-free quorum is a root-to-leaf path of
	// 3 sites; quorums avoiding the root have 4.
	e, err := TreeQuorums(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := (quorum.System{Read: e, Write: e}).Validate(); err != nil {
		t.Fatalf("tree coterie invalid: %v", err)
	}
	qs := minimalGroups(t, e)
	minSize, maxSize := 64, 0
	rootPath := false
	for _, g := range qs {
		if g.Size() < minSize {
			minSize = g.Size()
		}
		if g.Size() > maxSize {
			maxSize = g.Size()
		}
		if g == quorum.NewGroup(0, 1, 3) {
			rootPath = true
		}
	}
	if minSize != 3 {
		t.Fatalf("min quorum size %d, want 3 (root-to-leaf path)", minSize)
	}
	if !rootPath {
		t.Fatal("missing the root-to-leaf path quorum {0,1,3}")
	}
	if maxSize > 4 {
		t.Fatalf("max quorum size %d, want ≤ 4", maxSize)
	}
}

func TestTreeSystemGrants(t *testing.T) {
	s, err := TreeSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	// Root + left child + its left child: a path quorum.
	if !s.Write.Holds(quorum.NewGroup(0, 1, 3)) {
		t.Fatal("path quorum denied")
	}
	// All four leaves: contains a quorum of both subtrees ({3,4} and
	// {5,6} quorums need their subtree roots... leaves alone: left
	// subtree quorum without node 1 is {3,4}; right without 2 is {5,6}.
	if !s.Write.Holds(quorum.NewGroup(3, 4, 5, 6)) {
		t.Fatal("all-leaves quorum denied")
	}
	// Two leaves of the same subtree cannot form a quorum.
	if s.Write.Holds(quorum.NewGroup(3, 4)) {
		t.Fatal("left-subtree leaves alone granted")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeDepthLimit(t *testing.T) {
	if _, err := TreeQuorums(5); err == nil {
		t.Fatal("depth 5 (63 sites + root overflow) should be rejected")
	}
	if _, err := TreeQuorums(-1); err == nil {
		t.Fatal("negative depth accepted")
	}
}

func TestFanoPlaneProperties(t *testing.T) {
	lines := minimalGroups(t, FanoPlane())
	if len(lines) != 7 {
		t.Fatalf("%d lines", len(lines))
	}
	// Each line has 3 sites; every pair intersects in exactly one site;
	// every site lies on exactly 3 lines.
	onLines := make([]int, 7)
	for i, l := range lines {
		if l.Size() != 3 {
			t.Fatalf("line %d size %d", i, l.Size())
		}
		for _, s := range l.Sites() {
			onLines[s]++
		}
		for j := i + 1; j < len(lines); j++ {
			inter := l & lines[j]
			if inter.Size() != 1 {
				t.Fatalf("lines %d and %d share %d sites", i, j, inter.Size())
			}
		}
	}
	for s, c := range onLines {
		if c != 3 {
			t.Fatalf("site %d lies on %d lines", s, c)
		}
	}
	if err := FanoSystem().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFanoAvailabilityOnK7(t *testing.T) {
	// On a reliable-link K7 at p = 0.9 the Fano coterie's availability is
	// competitive with majority voting — in fact slightly better, the
	// classic demonstration (Garcia-Molina & Barbara) that coteries
	// escape the voting framework: some 3-site configurations grant under
	// Fano but not majority, and some 4-site ones vice versa.
	g := graph.Complete(7)
	d, err := Components(g, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	maj, err := FromQuorums(quorum.UniformVotes(7), quorum.Majority(7))
	if err != nil {
		t.Fatal(err)
	}
	// (EXPERIMENTS.md "Coteries against voting" reproduces these rows.)
	for _, alpha := range []float64{0, 0.5, 0.9, 1} {
		fano, err := d.Availability(FanoSystem(), alpha)
		if err != nil {
			t.Fatal(err)
		}
		majA, err := d.Availability(maj, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if fano <= 0.8 || fano >= 1 || majA <= 0.8 || majA >= 1 {
			t.Fatalf("implausible availabilities fano=%g majority=%g", fano, majA)
		}
		t.Logf("K7, p=0.9, α=%g: Fano %.4f vs majority %.4f", alpha, fano, majA)
	}
	// Neither dominates structurally. Write side: a full line of 3 grants
	// under Fano, while valid (3,5)-voting needs 5 votes. Read side: any
	// 3-set reads under voting, but Fano reads need a line.
	fs := FanoSystem()
	line := quorum.NewGroup(0, 1, 2)
	if !fs.Write.Holds(line) || maj.Write.Holds(line) {
		t.Fatal("3-site line should grant writes only under Fano")
	}
	nonLine := quorum.NewGroup(0, 1, 3)
	if fs.Read.Holds(nonLine) || !maj.Read.Holds(nonLine) {
		t.Fatal("non-line 3-set should grant reads only under voting")
	}
}

func TestTreeVsMajorityQuorumSize(t *testing.T) {
	// The tree protocol's selling point: min quorum size 3 vs majority's 4
	// on 7 sites (fewer messages in the common case).
	e, _ := TreeQuorums(2)
	minTree := 64
	for _, g := range minimalGroups(t, e) {
		if g.Size() < minTree {
			minTree = g.Size()
		}
	}
	if minTree >= 4 {
		t.Fatalf("tree min quorum %d should beat majority's 4", minTree)
	}
}
