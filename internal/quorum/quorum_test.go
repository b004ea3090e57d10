package quorum

import (
	"testing"
	"testing/quick"
)

func TestAssignmentValidate(t *testing.T) {
	const T = 101
	valid := []Assignment{
		{QR: 1, QW: 101},
		{QR: 50, QW: 52},
		{QR: 28, QW: 74},
		{QR: 101, QW: 101},
	}
	for _, a := range valid {
		if err := a.Validate(T); err != nil {
			t.Fatalf("%v should be valid: %v", a, err)
		}
	}
	invalid := []Assignment{
		{QR: 0, QW: 101},  // q_r out of range
		{QR: 1, QW: 100},  // q_r+q_w = T, reads can miss writes
		{QR: 60, QW: 41},  // q_w ≤ T/2, concurrent writes
		{QR: 102, QW: 10}, // q_r out of range
		{QR: 51, QW: 50},  // 2q_w < T... also sum barely exceeds: check
	}
	for _, a := range invalid {
		if err := a.Validate(T); err == nil {
			t.Fatalf("%v should be invalid", a)
		}
	}
	if err := (Assignment{QR: 1, QW: 1}).Validate(0); err == nil {
		t.Fatal("T=0 should be invalid")
	}
}

func TestGrant(t *testing.T) {
	a := Assignment{QR: 28, QW: 74}
	if !a.GrantRead(28) || a.GrantRead(27) {
		t.Fatal("GrantRead boundary")
	}
	if !a.GrantWrite(74) || a.GrantWrite(73) {
		t.Fatal("GrantWrite boundary")
	}
}

func TestForReadQuorum(t *testing.T) {
	a := ForReadQuorum(28, 101)
	if a.QR != 28 || a.QW != 74 {
		t.Fatalf("got %v", a)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("q_r above ⌊T/2⌋+… invalid values should panic")
		}
	}()
	ForReadQuorum(0, 101)
}

func TestNamedProtocols(t *testing.T) {
	const T = 101
	m := Majority(T)
	if m.QR != 50 || m.QW != 52 {
		t.Fatalf("Majority = %v", m)
	}
	if err := m.Validate(T); err != nil {
		t.Fatal(err)
	}
	// Even T gives the textbook (T/2, T/2+1).
	even := Majority(100)
	if even.QR != 50 || even.QW != 51 || even.Validate(100) != nil {
		t.Fatalf("Majority(100) = %v", even)
	}
	rowa := ReadOneWriteAll(T)
	if rowa.QR != 1 || rowa.QW != T {
		t.Fatalf("ROWA = %v", rowa)
	}
	if err := rowa.Validate(T); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerate(t *testing.T) {
	const T = 101
	all := Enumerate(T)
	if len(all) != 50 {
		t.Fatalf("got %d assignments", len(all))
	}
	for i, a := range all {
		if a.QR != i+1 {
			t.Fatalf("assignment %d has q_r=%d", i, a.QR)
		}
		if err := a.Validate(T); err != nil {
			t.Fatalf("%v: %v", a, err)
		}
	}
	if Enumerate(1) != nil {
		t.Fatal("T=1 has no useful family")
	}
}

// TestQuickFamilyValid checks that the paper's q_w = T−q_r+1 family is valid
// for every total and read quorum in range.
func TestQuickFamilyValid(t *testing.T) {
	f := func(tRaw, qrRaw uint16) bool {
		T := int(tRaw%500) + 2
		qr := int(qrRaw)%(T/2) + 1
		return ForReadQuorum(qr, T).Validate(T) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIntersection verifies the semantic meaning of the conditions:
// any two groups holding q_w votes each must overlap, and any group holding
// q_r votes overlaps any group holding q_w votes. We model groups as vote
// amounts: two disjoint groups can hold at most T votes total.
func TestQuickIntersection(t *testing.T) {
	f := func(tRaw, qrRaw uint16) bool {
		T := int(tRaw%500) + 2
		qr := int(qrRaw)%(T/2) + 1
		a := ForReadQuorum(qr, T)
		// Disjoint groups' votes sum ≤ T. Write+write and read+write quorum
		// pairs must exceed T, forcing overlap.
		return a.QW+a.QW > T && a.QR+a.QW > T
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVoteAssignments(t *testing.T) {
	u := UniformVotes(5)
	if u.Total() != 5 {
		t.Fatalf("uniform total %d", u.Total())
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	p := PrimaryCopyVotes(5, 2)
	if p.Total() != 1 || p[2] != 1 || p[0] != 0 {
		t.Fatalf("primary votes %v", p)
	}
	bad := VoteAssignment{1, -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative votes should fail")
	}
	zero := VoteAssignment{0, 0}
	if err := zero.Validate(); err == nil {
		t.Fatal("zero total should fail")
	}
}

func TestPrimaryCopyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PrimaryCopyVotes(3, 3)
}

func TestAssignmentString(t *testing.T) {
	if got := (Assignment{QR: 28, QW: 74}).String(); got != "(q_r=28, q_w=74)" {
		t.Fatalf("String = %q", got)
	}
}

func TestGroupBasics(t *testing.T) {
	g := NewGroup(0, 2, 5)
	if g.Size() != 3 || !g.Contains(2) || g.Contains(1) {
		t.Fatalf("group %b", g)
	}
	sites := g.Sites()
	if len(sites) != 3 || sites[0] != 0 || sites[1] != 2 || sites[2] != 5 {
		t.Fatalf("sites %v", sites)
	}
	h := NewGroup(2, 3)
	if !g.Intersects(h) || g.Intersects(NewGroup(1, 3)) {
		t.Fatal("Intersects")
	}
	if !NewGroup(2).Subset(g) || g.Subset(h) {
		t.Fatal("Subset")
	}
}

func TestGroupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGroup(64)
}

// anyOf is the expression whose quorums are exactly the given site sets
// (before minimization): the explicit-list form of a coterie.
func anyOf(gs ...Group) Expr {
	alts := make([]Expr, len(gs))
	for i, g := range gs {
		sites := make([]Expr, 0, g.Size())
		for _, s := range g.Sites() {
			sites = append(sites, Site(s))
		}
		alts[i] = And(sites...)
	}
	return Or(alts...)
}

// coterie is the system that uses one expression for reads and writes, so
// Validate checks exactly the coterie intersection property.
func coterie(e Expr) System { return System{Read: e, Write: e} }

func TestCoterieValidate(t *testing.T) {
	good := anyOf(NewGroup(0, 1), NewGroup(1, 2), NewGroup(0, 2))
	if err := coterie(good).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := coterie(anyOf(NewGroup(0), NewGroup(1))).Validate(); err == nil {
		t.Fatal("disjoint quorums should fail")
	}
	// A superset quorum is not an error in the algebra: it is simply not
	// minimal, and enumeration drops it.
	notMinimal := anyOf(NewGroup(0, 1), NewGroup(0, 1, 2), NewGroup(0, 1))
	if qs, ok := notMinimal.MinimalQuorums(0); !ok || len(qs) != 1 || NewGroup(qs[0]...) != NewGroup(0, 1) {
		t.Fatalf("minimal quorums %v, want [[0 1]]", qs)
	}
	if err := (System{}).Validate(); err == nil {
		t.Fatal("empty system should fail")
	}
	if err := (System{Read: good}).Validate(); err == nil {
		t.Fatal("system without a write expression should fail")
	}
	// An empty quorum cannot be written down.
	for name, build := range map[string]func(){
		"And()":       func() { And() },
		"Choose(0)":   func() { Choose(0, Site(0)) },
		"Choose(3/2)": func() { Choose(3, Site(0), Site(1)) },
		"Site(64)":    func() { Site(64) },
		"q=0":         func() { Threshold(UniformVotes(3), 0) },
		"votes<0":     func() { Threshold(VoteAssignment{1, -1}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic", name)
				}
			}()
			build()
		}()
	}
}

func TestCoterieCanProceed(t *testing.T) {
	c := Threshold(UniformVotes(5), 3)
	if !c.Holds(NewGroup(0, 1, 2)) {
		t.Fatal("majority of 5 present")
	}
	if c.Holds(NewGroup(0, 1)) {
		t.Fatal("2 of 5 is not a majority")
	}
	if !c.Holds(NewGroup(0, 1, 2, 3, 4)) {
		t.Fatal("full set must proceed")
	}
	if (Expr{}).Holds(NewGroup(0, 1, 2, 3, 4)) {
		t.Fatal("the zero expression has no quorum")
	}
}

// groupsOf returns an expression's minimal quorums as a Group set.
func groupsOf(t *testing.T, e Expr) map[Group]bool {
	t.Helper()
	qs, ok := e.MinimalQuorums(0)
	if !ok {
		t.Fatal("unlimited enumeration reported incomplete")
	}
	out := map[Group]bool{}
	for _, q := range qs {
		out[NewGroup(q...)] = true
	}
	if len(out) != len(qs) {
		t.Fatalf("duplicate minimal quorums in %v", qs)
	}
	return out
}

func TestFromVotesUniformMajority(t *testing.T) {
	e := Threshold(UniformVotes(5), 3)
	if err := coterie(Or(e)).Validate(); err != nil { // Or(e): the pairwise back-end
		t.Fatal(err)
	}
	c := groupsOf(t, e)
	if len(c) != 10 { // C(5,3)
		t.Fatalf("expected 10 quorums, got %d", len(c))
	}
	for g := range c {
		if g.Size() != 3 {
			t.Fatalf("quorum %v has size %d", g.Sites(), g.Size())
		}
	}
}

func TestFromVotesWeighted(t *testing.T) {
	// Votes (2,1,1), q=2: minimal groups are {0}, {1,2}.
	e := Threshold(VoteAssignment{2, 1, 1}, 2)
	c := groupsOf(t, e)
	if len(c) != 2 || !c[NewGroup(0)] || !c[NewGroup(1, 2)] {
		t.Fatalf("got quorums %v", c)
	}
	// q=2 of total 4 is not a write quorum (needs > T/2), so the induced
	// groups need not pairwise intersect — and indeed {0} ∩ {1,2} = ∅. Both
	// back-ends must say so.
	if err := coterie(e).Validate(); err == nil {
		t.Fatal("pigeonhole accepted a sub-majority write quorum")
	}
	if err := coterie(Or(e)).Validate(); err == nil {
		t.Fatal("sub-majority quorum groups should not form a coterie")
	}
	// With a genuine write quorum q=3 the induced groups form a coterie:
	// {0,1}, {0,2} (2+1 votes each) and {1,2} has only 2 < 3 votes... so
	// minimal groups are {0,1}, {0,2}.
	ew := Threshold(VoteAssignment{2, 1, 1}, 3)
	if err := coterie(Or(ew)).Validate(); err != nil {
		t.Fatal(err)
	}
	if cw := groupsOf(t, ew); len(cw) != 2 || !cw[NewGroup(0, 1)] || !cw[NewGroup(0, 2)] {
		t.Fatalf("write coterie %v", cw)
	}
}

func TestFromVotesPrimaryCopy(t *testing.T) {
	c := groupsOf(t, Threshold(PrimaryCopyVotes(4, 1), 1))
	if len(c) != 1 || !c[NewGroup(1)] {
		t.Fatalf("primary-copy coterie %v", c)
	}
}

func TestFromVotesUnreachable(t *testing.T) {
	e := Threshold(UniformVotes(3), 4)
	if qs, ok := e.MinimalQuorums(0); !ok || len(qs) != 0 {
		t.Fatalf("q beyond total should give no quorum, got %v", qs)
	}
	if e.Holds(NewGroup(0, 1, 2)) {
		t.Fatal("q beyond total granted")
	}
	if err := coterie(Or(e)).Validate(); err == nil {
		t.Fatal("a system with no quorum validated")
	}
}

// TestQuickVoteCoterieIntersection: coteries induced by a write quorum
// always satisfy the intersection property — by the pigeonhole rule, and
// by the pairwise check over their minimal quorums.
func TestQuickVoteCoterieIntersection(t *testing.T) {
	f := func(votesRaw []uint8, seed uint8) bool {
		n := len(votesRaw)
		if n == 0 || n > 10 {
			return true
		}
		votes := make(VoteAssignment, n)
		total := 0
		for i, v := range votesRaw {
			votes[i] = int(v % 4)
			total += votes[i]
		}
		if total == 0 {
			return true
		}
		e := Threshold(votes, total/2+1)
		return coterie(e).Validate() == nil && coterie(Or(e)).Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkThresholdQuorums12(b *testing.B) {
	votes := UniformVotes(12)
	for i := 0; i < b.N; i++ {
		_, _ = ThresholdQuorums[[]int](votes, 7, 0, 0)
	}
}

// TestCopyAdopt pins the QR merge rule every layer uses: the newer version
// carries the assignment, the newer stamp carries the value, anything
// equal or older leaves the receiver alone, and changed is exact.
func TestCopyAdopt(t *testing.T) {
	c := Copy{Value: 10, Stamp: 3, Version: 2, QR: 2, QW: 4}
	cases := []struct {
		name    string
		in      Copy
		want    Copy
		changed bool
	}{
		{"newer version carries QR and QW", Copy{Value: 9, Stamp: 1, Version: 3, QR: 1, QW: 5},
			Copy{Value: 10, Stamp: 3, Version: 3, QR: 1, QW: 5}, true},
		{"newer stamp carries the value", Copy{Value: 20, Stamp: 4, Version: 1, QR: 1, QW: 5},
			Copy{Value: 20, Stamp: 4, Version: 2, QR: 2, QW: 4}, true},
		{"both newer", Copy{Value: 20, Stamp: 4, Version: 3, QR: 1, QW: 5},
			Copy{Value: 20, Stamp: 4, Version: 3, QR: 1, QW: 5}, true},
		{"equal fields", Copy{Value: 99, Stamp: 3, Version: 2, QR: 1, QW: 5}, c, false},
		{"older fields", Copy{Value: 99, Stamp: 2, Version: 1, QR: 1, QW: 5}, c, false},
		{"itself", c, c, false},
	}
	for _, tc := range cases {
		got := c
		if changed := got.Adopt(tc.in); got != tc.want || changed != tc.changed {
			t.Errorf("%s: Adopt gave %+v changed=%v, want %+v changed=%v",
				tc.name, got, changed, tc.want, tc.changed)
		}
	}
	if a := c.Assignment(); a != (Assignment{QR: 2, QW: 4}) {
		t.Errorf("Assignment() = %v", a)
	}
}
