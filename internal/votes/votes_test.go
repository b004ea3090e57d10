package votes

import (
	"math"
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

// exactObjective is the exact availability objective over every failure
// configuration of g.
func exactObjective(tb testing.TB, g *graph.Graph, p, r, alpha float64) *AvailObjective {
	tb.Helper()
	sc, err := ExactScenarios(g, p, r)
	if err != nil {
		tb.Fatal(err)
	}
	obj, err := NewAvailObjective(sc, alpha)
	if err != nil {
		tb.Fatal(err)
	}
	return obj
}

// star5 is the objective most search tests climb: a 5-site star, p=0.9,
// r=0.7, α=0.5.
func star5(tb testing.TB) *AvailObjective { return exactObjective(tb, graph.Star(5), 0.9, 0.7, 0.5) }

func TestEvaluateUniformRing(t *testing.T) {
	obj := exactObjective(t, graph.Ring(5), 0.9, 0.7, 0.5)
	ov, err := obj.Eval(quorum.UniformVotes(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := ov.Assignment.Validate(5); err != nil {
		t.Fatal(err)
	}
	if ov.Value <= 0 || ov.Value > 1 {
		t.Fatalf("availability %g", ov.Value)
	}
}

func TestEvaluateValidation(t *testing.T) {
	g := graph.Ring(5)
	obj := exactObjective(t, g, 0.9, 0.7, 0.5)
	if _, err := obj.Eval(quorum.VoteAssignment{1, 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := obj.Eval(quorum.VoteAssignment{0, 0, 0, 0, 0}); err == nil {
		t.Fatal("zero votes accepted")
	}
	if _, err := obj.Eval(quorum.VoteAssignment{2, -1, 1, 1, 1}); err == nil {
		t.Fatal("negative votes accepted")
	}
	if _, err := NewAvailObjective(obj.Scen, 2); err == nil {
		t.Fatal("bad α accepted")
	}
	if _, err := NewAvailObjective(obj.Scen, math.NaN()); err == nil {
		t.Fatal("NaN α accepted")
	}
	if _, err := HillClimbObjective(5, obj, quorum.UniformVotes(5), SearchConfig{}); err == nil {
		t.Fatal("bad max votes accepted")
	}
	if _, err := HillClimbObjective(5, obj, quorum.UniformVotes(5), SearchConfig{MaxVotesPerSite: 3, TotalBudget: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
}

func TestDegreeHeuristic(t *testing.T) {
	g := graph.Star(6)
	v := DegreeHeuristic(g, 5)
	if v[0] != 5 {
		t.Fatalf("hub votes %d, want 5", v[0])
	}
	for i := 1; i < 6; i++ {
		if v[i] != 1 {
			t.Fatalf("leaf %d votes %d, want 1", i, v[i])
		}
	}
	// Regular graph: all equal.
	vr := DegreeHeuristic(graph.Ring(5), 4)
	for _, x := range vr {
		if x != vr[0] {
			t.Fatalf("ring heuristic not uniform: %v", vr)
		}
	}
}

func TestHubVotesBeatUniformOnStar(t *testing.T) {
	// On a star every component contains the hub (or is a singleton), so
	// concentrating votes at the hub mimics primary copy and beats uniform
	// when links are unreliable.
	obj := star5(t)
	uni, err := obj.Eval(quorum.UniformVotes(5))
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := obj.Eval(quorum.VoteAssignment{3, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if weighted.Value <= uni.Value {
		t.Fatalf("hub-weighted %g should beat uniform %g on a star", weighted.Value, uni.Value)
	}
}

func TestHillClimbImprovesOnStar(t *testing.T) {
	obj := star5(t)
	uni, err := obj.Eval(quorum.UniformVotes(5))
	if err != nil {
		t.Fatal(err)
	}
	hc, err := HillClimbObjective(5, obj, quorum.UniformVotes(5), SearchConfig{MaxVotesPerSite: 3})
	if err != nil {
		t.Fatal(err)
	}
	if hc.Value <= uni.Value {
		t.Fatalf("hill climb failed to improve on a star: %g vs %g", hc.Value, uni.Value)
	}
	// The climb should have favored the hub.
	if hc.Votes[0] <= hc.Votes[1] {
		t.Fatalf("expected hub-weighted votes, got %v", hc.Votes)
	}
}

func TestExhaustiveAtLeastHillClimb(t *testing.T) {
	obj := exactObjective(t, graph.Star(4), 0.9, 0.6, 0.5)
	scfg := SearchConfig{MaxVotesPerSite: 2}
	ex, err := ExhaustiveObjective(4, obj, scfg)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := HillClimbObjective(4, obj, quorum.UniformVotes(4), scfg)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Value+1e-12 < hc.Value {
		t.Fatalf("exhaustive %g below hill climb %g", ex.Value, hc.Value)
	}
	if err := ex.Assignment.Validate(ex.Votes.Total()); err != nil {
		t.Fatal(err)
	}
}

func TestExhaustiveRespectsBudget(t *testing.T) {
	obj := exactObjective(t, graph.Path(3), 0.9, 0.8, 0.5)
	ex, err := ExhaustiveObjective(3, obj, SearchConfig{MaxVotesPerSite: 3, TotalBudget: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Votes.Total() > 4 {
		t.Fatalf("budget exceeded: %v", ex.Votes)
	}
}

func TestExhaustiveSizeLimit(t *testing.T) {
	obj := exactObjective(t, graph.Ring(9), 0.9, 0.7, 0.5)
	if _, err := ExhaustiveObjective(9, obj, SearchConfig{MaxVotesPerSite: 3}); err == nil {
		t.Fatal("9 sites should be rejected")
	}
}

func TestPerfectNetworkAnyVotesEquivalent(t *testing.T) {
	// With perfect reliability every assignment achieves availability 1.
	obj := exactObjective(t, graph.Ring(4), 1, 1, 0.5)
	for _, v := range []quorum.VoteAssignment{{1, 1, 1, 1}, {2, 0, 1, 2}, {0, 0, 1, 0}} {
		ov, err := obj.Eval(v)
		if err != nil {
			t.Fatal(err)
		}
		if v.Total() > 1 && math.Abs(ov.Value-1) > 1e-9 {
			t.Fatalf("perfect network availability %g for %v", ov.Value, v)
		}
	}
}

func BenchmarkExactEvalStar5(b *testing.B) {
	obj := star5(b)
	v := quorum.VoteAssignment{3, 1, 1, 1, 1}
	for i := 0; i < b.N; i++ {
		if _, err := obj.Eval(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHillClimbStar5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := HillClimbObjective(5, star5(b), quorum.UniformVotes(5), SearchConfig{MaxVotesPerSite: 3}); err != nil {
			b.Fatal(err)
		}
	}
}
