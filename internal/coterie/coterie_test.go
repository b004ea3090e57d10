package coterie

import (
	"math"
	"testing"

	"quorumkit/internal/core"
	"quorumkit/internal/dist"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/votes"
)

func TestSystemValidate(t *testing.T) {
	good := quorum.System{
		Read:  quorum.Or(quorum.Site(0), quorum.Site(1)),
		Write: quorum.And(quorum.Site(0), quorum.Site(1)),
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	disjointWrites := quorum.System{Read: good.Write, Write: good.Read}
	if err := disjointWrites.Validate(); err == nil {
		t.Fatal("disjoint write groups accepted")
	}
	readMisses := quorum.System{Read: quorum.Site(2), Write: good.Write}
	if err := readMisses.Validate(); err == nil {
		t.Fatal("read group missing writes accepted")
	}
	if err := (quorum.System{}).Validate(); err == nil {
		t.Fatal("empty system accepted")
	}
	noReads := quorum.System{Write: quorum.Site(0)}
	if err := noReads.Validate(); err == nil {
		t.Fatal("system without a read expression accepted")
	}
}

func TestFromQuorums(t *testing.T) {
	votes := quorum.UniformVotes(5)
	s, err := FromQuorums(votes, quorum.Assignment{QR: 2, QW: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Read groups: all 2-subsets (10); write groups: all 4-subsets (5).
	if r, w := minimalGroups(t, s.Read), minimalGroups(t, s.Write); len(r) != 10 || len(w) != 5 {
		t.Fatalf("groups %d/%d", len(r), len(w))
	}
	if !s.Read.Holds(quorum.NewGroup(1, 3)) || s.Read.Holds(quorum.NewGroup(2)) {
		t.Fatal("read grant logic")
	}
	if !s.Write.Holds(quorum.NewGroup(0, 1, 2, 3)) || s.Write.Holds(quorum.NewGroup(0, 1, 2)) {
		t.Fatal("write grant logic")
	}
	if _, err := FromQuorums(votes, quorum.Assignment{QR: 1, QW: 3}); err == nil {
		t.Fatal("invalid quorum pair accepted")
	}
	if _, err := FromQuorums(votes, quorum.Assignment{QR: 0, QW: 5}); err == nil {
		t.Fatal("zero read quorum accepted")
	}
	if _, err := FromQuorums(quorum.VoteAssignment{2, -1, 1}, quorum.Assignment{QR: 1, QW: 2}); err == nil {
		t.Fatal("negative votes accepted")
	}
}

// TestMinimize: writing a quorum twice, or a superset of another, changes
// nothing — enumeration returns the minimal antichain, the same one the
// explicit-list oracle computes.
func TestMinimize(t *testing.T) {
	gs := []quorum.Group{
		quorum.NewGroup(0, 1),
		quorum.NewGroup(0, 1, 2), // superset: dropped
		quorum.NewGroup(0, 1),    // duplicate: dropped
		quorum.NewGroup(2),
	}
	alts := make([]quorum.Expr, len(gs))
	for i, g := range gs {
		sites := make([]quorum.Expr, 0, g.Size())
		for _, s := range g.Sites() {
			sites = append(sites, quorum.Site(s))
		}
		alts[i] = quorum.And(sites...)
	}
	if min := minimalGroups(t, quorum.Or(alts...)); len(min) != 2 {
		t.Fatalf("minimized to %v", min)
	}
	assertMatchesOracle(t, "explicit list", quorum.Or(alts...), gs, 3)
}

func TestGridSystem(t *testing.T) {
	s, err := Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Reads: one site per column → 3^3 = 27 covers.
	if reads := minimalGroups(t, s.Read); len(reads) != 27 {
		t.Fatalf("read groups %d", len(reads))
	}
	// Write groups: column ∪ cover, minimized. Each has 3 + 2 sites.
	for _, w := range minimalGroups(t, s.Write) {
		if w.Size() != 5 {
			t.Fatalf("write group size %d: %v", w.Size(), w.Sites())
		}
	}
	// Full grid grants everything; a single row grants reads only.
	full := quorum.NewGroup(0, 1, 2, 3, 4, 5, 6, 7, 8)
	row := quorum.NewGroup(3, 4, 5)
	if !s.Read.Holds(full) || !s.Write.Holds(full) {
		t.Fatal("full grid must grant all")
	}
	if !s.Read.Holds(row) {
		t.Fatal("a full row covers every column: read must be granted")
	}
	if s.Write.Holds(row) {
		t.Fatal("a row contains no full column: write must be denied")
	}
	// A full column alone cannot even read... it can: column covers only
	// its own column. 3 columns needed. Check denial:
	col := quorum.NewGroup(0, 3, 6)
	if s.Read.Holds(col) {
		t.Fatal("a single column does not cover all columns")
	}
}

func TestGridNotVoteInducible(t *testing.T) {
	s, err := Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if VoteInducible(s, 9, 3) {
		t.Fatal("the 3x3 grid write coterie should not be vote-inducible (votes ≤ 3)")
	}
	// Control: a majority coterie IS vote-inducible.
	e := quorum.Threshold(quorum.UniformVotes(3), 2)
	maj := quorum.System{Read: e, Write: e}
	if !VoteInducible(maj, 3, 2) {
		t.Fatal("majority coterie should be vote-inducible")
	}
	// Every Fano line is a minimal quorum of 3-of-7 voting, but so are 28
	// other triples: part of an induced coterie is not the coterie.
	if VoteInducible(FanoSystem(), 7, 2) {
		t.Fatal("the Fano plane should not be vote-inducible")
	}
}

func TestAvailabilityMatchesVoteModel(t *testing.T) {
	// On a vote-induced system the coterie evaluator must agree with the
	// paper's vote-count model computed from exact densities.
	g := graph.Ring(5)
	const p, r = 0.9, 0.8
	a := quorum.Assignment{QR: 2, QW: 4}
	s, err := FromQuorums(quorum.UniformVotes(5), a)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{0, 0.5, 1} {
		got, err := availability(g, p, r, s, alpha)
		if err != nil {
			t.Fatal(err)
		}
		fs := dist.Exact(g, nil, p, r)
		pmfs := make([]dist.PMF, len(fs))
		copy(pmfs, fs)
		m, err := core.NewModel(nil, nil, pmfs)
		if err != nil {
			t.Fatal(err)
		}
		want := m.AvailabilityFor(alpha, a)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("α=%g: coterie %g vs vote model %g", alpha, got, want)
		}
	}
}

// availability prices s exactly on g's component table.
func availability(g *graph.Graph, p, r float64, s quorum.System, alpha float64) (float64, error) {
	sc, err := votes.ExactScenarios(g, p, r)
	if err != nil {
		return 0, err
	}
	return sc.Availability(s, alpha)
}

// rowa is the read-one-write-all system over n unit-vote sites: any single
// site reads, only the full set writes.
func rowa(t *testing.T, n int) quorum.System {
	t.Helper()
	s, err := FromQuorums(quorum.UniformVotes(n), quorum.ReadOneWriteAll(n))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestROWASystem(t *testing.T) {
	g := graph.Ring(4)
	s := rowa(t, 4)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	const p, r = 0.9, 0.9
	// Pure reads: availability = p (any up site reads itself).
	got, err := availability(g, p, r, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-p) > 1e-9 {
		t.Fatalf("ROWA pure-read availability %g, want %g", got, p)
	}
	// Pure writes: need the whole ring connected: p^4·(r^4 + 4r^3(1−r)).
	got, err = availability(g, p, r, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(p, 4) * (math.Pow(r, 4) + 4*math.Pow(r, 3)*(1-r))
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("ROWA pure-write availability %g, want %g", got, want)
	}
}

func TestGridVsMajorityOnGridTopology(t *testing.T) {
	// Evaluate the grid protocol against majority voting on the matching
	// 3x3 grid topology: the rows EXPERIMENTS.md "Coteries against voting"
	// prints, each to its four printed decimals.
	g := graph.Grid(3, 3)
	const p, r = 0.95, 0.95
	grid, err := Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	maj, err := FromQuorums(quorum.UniformVotes(9), quorum.ForReadQuorum(4, 9))
	if err != nil {
		t.Fatal(err)
	}
	// One enumeration, two evaluations.
	sc, err := votes.ExactScenarios(g, p, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct{ alpha, grid, maj float64 }{
		{0, 0.9357, 0.9373},
		{0.5, 0.9378, 0.9399},
		{0.9, 0.9395, 0.9421},
		{1, 0.9400, 0.9426},
	} {
		assertPrinted(t, sc, "grid protocol", grid, row.alpha, row.grid)
		assertPrinted(t, sc, "majority", maj, row.alpha, row.maj)
	}
}

// assertPrinted checks that the system's exact availability on the table
// rounds to the value EXPERIMENTS.md prints for it.
func assertPrinted(t *testing.T, sc *votes.Scenarios, name string, s quorum.System, alpha, printed float64) {
	t.Helper()
	got, err := sc.Availability(s, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-printed) > 5e-5 {
		t.Fatalf("α=%g: %s availability %.6f, EXPERIMENTS.md prints %.4f", alpha, name, got, printed)
	}
	t.Logf("α=%g: %s %.4f", alpha, name, got)
}

func TestAvailabilitySizeLimit(t *testing.T) {
	g := graph.Complete(8) // 8+28 > 24
	s := rowa(t, 8)
	if _, err := availability(g, 0.9, 0.9, s, 0.5); err == nil {
		t.Fatal("oversized evaluation accepted")
	}
}

func BenchmarkGridAvailability(b *testing.B) {
	g := graph.Grid(3, 3)
	s, err := Grid(3, 3)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := availability(g, 0.95, 0.95, s, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}
