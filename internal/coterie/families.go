package coterie

import (
	"fmt"

	"quorumkit/internal/quorum"
)

// This file implements two further classic coterie families the
// coterie-versus-voting literature (the paper's references [7, 8])
// compares against: tree quorums (Agrawal & El Abbadi) and the finite-
// projective-plane coterie of Maekawa's √N algorithm, instantiated for the
// Fano plane.

// TreeQuorums returns the quorum expression of the tree protocol on a
// complete binary tree of the given depth (depth 0 = a single root). Sites
// are numbered heap-style: root 0, children of i at 2i+1 and 2i+2.
//
// A quorum is obtained by the protocol's recursion: take the root and a
// quorum of one of its subtrees, or (if the root is inaccessible) a quorum
// of BOTH subtrees — that is, any two of {root, left quorum, right quorum}.
// Any two quorums intersect, and in the failure-free case a quorum has only
// depth+1 sites — logarithmic in n.
func TreeQuorums(depth int) (quorum.Expr, error) {
	if depth < 0 || depth > 4 {
		return quorum.Expr{}, fmt.Errorf("coterie: tree depth %d out of [0,4]", depth)
	}
	return treeQuorumsAt(0, depth), nil
}

// treeQuorumsAt returns the quorum expression of the subtree rooted at
// `root` with `levels` levels below it.
func treeQuorumsAt(root, levels int) quorum.Expr {
	if levels == 0 {
		return quorum.Site(root)
	}
	return quorum.Choose(2, quorum.Site(root),
		treeQuorumsAt(2*root+1, levels-1), treeQuorumsAt(2*root+2, levels-1))
}

// TreeSystem returns the tree-quorum coterie used for both reads and
// writes (the tree protocol does not relax reads). Depth 4 has 65,535
// minimal quorums, past what Validate compares pairwise, so it is declined
// with quorum.ErrUndecided; TreeQuorums(4) still evaluates.
func TreeSystem(depth int) (quorum.System, error) {
	e, err := TreeQuorums(depth)
	if err != nil {
		return quorum.System{}, err
	}
	s := quorum.System{Read: e, Write: e}
	if err := s.Validate(); err != nil {
		return quorum.System{}, err
	}
	return s, nil
}

// FanoPlane returns the seven lines of the Fano plane PG(2,2) over sites
// 0..6 — the coterie behind Maekawa's √N mutual exclusion algorithm for
// n = 7. Every pair of lines intersects in exactly one site, every line
// has exactly three sites, and every site lies on exactly three lines.
func FanoPlane() quorum.Expr {
	lines := [][3]int{
		{0, 1, 2},
		{0, 3, 4},
		{0, 5, 6},
		{1, 3, 5},
		{1, 4, 6},
		{2, 3, 6},
		{2, 4, 5},
	}
	out := make([]quorum.Expr, len(lines))
	for i, l := range lines {
		out[i] = quorum.And(quorum.Site(l[0]), quorum.Site(l[1]), quorum.Site(l[2]))
	}
	return quorum.Or(out...)
}

// FanoSystem returns the Fano-plane coterie as a read/write system (same
// quorums for both, as in Maekawa's algorithm).
func FanoSystem() quorum.System {
	e := FanoPlane()
	return quorum.System{Read: e, Write: e}
}
