package votes

import (
	"math"
	"testing"

	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
)

func cfg(alpha float64) Config {
	return Config{P: 0.9, R: 0.7, Alpha: alpha, MaxVotesPerSite: 3}
}

func TestEvaluateUniformRing(t *testing.T) {
	g := graph.Ring(5)
	ev, err := Uniform(g, cfg(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Votes.Total() != 5 {
		t.Fatalf("total %d", ev.Votes.Total())
	}
	if err := ev.Assignment.Validate(5); err != nil {
		t.Fatal(err)
	}
	if ev.Availability <= 0 || ev.Availability > 1 {
		t.Fatalf("availability %g", ev.Availability)
	}
}

func TestEvaluateValidation(t *testing.T) {
	g := graph.Ring(5)
	if _, err := Evaluate(g, quorum.VoteAssignment{1, 1}, cfg(0.5)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Evaluate(g, quorum.VoteAssignment{0, 0, 0, 0, 0}, cfg(0.5)); err == nil {
		t.Fatal("zero votes accepted")
	}
	bad := cfg(0.5)
	bad.Alpha = 2
	if _, err := Uniform(g, bad); err == nil {
		t.Fatal("bad α accepted")
	}
	bad = cfg(0.5)
	bad.MaxVotesPerSite = 0
	if _, err := Uniform(g, bad); err == nil {
		t.Fatal("bad max votes accepted")
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
	g := graph.Star(5)
	c := cfg(0.5)
	uni, err := Uniform(g, c)
	if err != nil {
		t.Fatal(err)
	}
	hub := quorum.VoteAssignment{3, 1, 1, 1, 1}
	weighted, err := Evaluate(g, hub, c)
	if err != nil {
		t.Fatal(err)
	}
	if weighted.Availability <= uni.Availability {
		t.Fatalf("hub-weighted %g should beat uniform %g on a star",
			weighted.Availability, uni.Availability)
	}
}

func TestHillClimbImprovesOnStar(t *testing.T) {
	g := graph.Star(5)
	c := cfg(0.5)
	uni, err := Uniform(g, c)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := HillClimb(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if hc.Availability < uni.Availability-1e-12 {
		t.Fatalf("hill climb %g worse than its uniform start %g",
			hc.Availability, uni.Availability)
	}
	if hc.Availability <= uni.Availability {
		t.Fatalf("hill climb failed to improve on a star: %g vs %g",
			hc.Availability, uni.Availability)
	}
	// The climb should have favored the hub.
	if hc.Votes[0] <= hc.Votes[1] {
		t.Fatalf("expected hub-weighted votes, got %v", hc.Votes)
	}
}

func TestExhaustiveAtLeastHillClimb(t *testing.T) {
	g := graph.Star(4)
	c := Config{P: 0.9, R: 0.6, Alpha: 0.5, MaxVotesPerSite: 2}
	ex, err := Exhaustive(g, c)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := HillClimb(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Availability+1e-12 < hc.Availability {
		t.Fatalf("exhaustive %g below hill climb %g", ex.Availability, hc.Availability)
	}
	if err := ex.Assignment.Validate(ex.Votes.Total()); err != nil {
		t.Fatal(err)
	}
}

func TestExhaustiveRespectsBudget(t *testing.T) {
	g := graph.Path(3)
	c := Config{P: 0.9, R: 0.8, Alpha: 0.5, MaxVotesPerSite: 3, TotalBudget: 4}
	ev, err := Exhaustive(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Votes.Total() > 4 {
		t.Fatalf("budget exceeded: %v", ev.Votes)
	}
}

func TestExhaustiveSizeLimit(t *testing.T) {
	if _, err := Exhaustive(graph.Ring(9), cfg(0.5)); err == nil {
		t.Fatal("9 sites should be rejected")
	}
}

func TestPerfectNetworkAnyVotesEquivalent(t *testing.T) {
	// With perfect reliability every assignment achieves availability 1.
	g := graph.Ring(4)
	c := Config{P: 1, R: 1, Alpha: 0.5, MaxVotesPerSite: 2}
	uni, err := Uniform(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(uni.Availability-1) > 1e-9 {
		t.Fatalf("perfect network availability %g", uni.Availability)
	}
}

func BenchmarkEvaluateStar5(b *testing.B) {
	g := graph.Star(5)
	v := quorum.VoteAssignment{3, 1, 1, 1, 1}
	c := Config{P: 0.9, R: 0.7, Alpha: 0.5, MaxVotesPerSite: 3}
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(g, v, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHillClimbStar5(b *testing.B) {
	g := graph.Star(5)
	c := Config{P: 0.9, R: 0.7, Alpha: 0.5, MaxVotesPerSite: 3}
	for i := 0; i < b.N; i++ {
		if _, err := HillClimb(g, c); err != nil {
			b.Fatal(err)
		}
	}
}
