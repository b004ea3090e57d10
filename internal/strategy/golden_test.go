package strategy

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// caseStudyDoc is the golden fixture: the quoracle-style five-node case
// study solved under each objective. The solver is deterministic, so the
// document is byte-stable; drift means the optimizer's answers changed,
// which must be deliberate. Regenerate with:
//
//	go test ./internal/strategy -run Golden -update
type caseStudyDoc struct {
	System System    `json:"system"`
	FrDist FrDist    `json:"fr_dist"`
	Cases  []docCase `json:"cases"`
}

type docCase struct {
	Name     string   `json:"name"`
	Value    float64  `json:"value"`
	Capacity float64  `json:"capacity"`
	Strategy Strategy `json:"strategy"`
}

func solveCaseStudy(t *testing.T) caseStudyDoc {
	t.Helper()
	sys := CaseStudySystem()
	d := CaseStudyFrDist()
	doc := caseStudyDoc{System: sys, FrDist: d}

	cap0, err := OptimizeCapacity(sys, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := OptimizeResilientCapacity(sys, d, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lat, err := OptimizeLatency(sys, d, CaseStudyLoadLimit())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		res  *Result
	}{
		{"capacity", cap0},
		{"capacity_f1", res1},
		{"latency_load_limited", lat},
	} {
		if err := c.res.Certify(certTol); err != nil {
			t.Fatalf("%s: certificate rejected: %v", c.name, err)
		}
		doc.Cases = append(doc.Cases, docCase{
			Name:     c.name,
			Value:    c.res.Value,
			Capacity: c.res.Capacity,
			Strategy: c.res.Strategy.Canonical(1e-12),
		})
	}
	return doc
}

func TestCaseStudyGolden(t *testing.T) {
	doc := solveCaseStudy(t)
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "case_study.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("case-study results drifted from golden %s.\n got: %s\nwant: %s\nRegenerate deliberately with -update.",
			path, got, want)
	}
}

// TestCaseStudyValues pins the three case-study objectives independently of
// the golden file. The optimal value of an LP does not depend on which
// optimal vertex a solver lands on, so these must survive any solver change
// that legitimately moves the golden's (degenerate) strategies; regenerate
// the golden only while this test passes.
func TestCaseStudyValues(t *testing.T) {
	want := map[string]float64{
		"capacity":             0.0002768617021276595,
		"capacity_f1":          0.000369148936170213,
		"latency_load_limited": 3.2382978723404254,
	}
	for _, c := range solveCaseStudy(t).Cases {
		if rel := math.Abs(c.Value-want[c.Name]) / want[c.Name]; rel > 1e-12 {
			t.Errorf("%s: value %.17g, want %.17g (rel %g)", c.Name, c.Value, want[c.Name], rel)
		}
	}
}

// TestCaseStudyAcceptance pins the PR's headline claims on the case study:
// randomization strictly beats every deterministic (read, write) quorum
// assignment under the nonuniform fr distribution, the optimum is globally
// certified, and the closed-form corner cases come out exactly.
func TestCaseStudyAcceptance(t *testing.T) {
	sys := CaseStudySystem()
	d := CaseStudyFrDist()

	res, err := OptimizeCapacity(sys, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CertifyGlobalCapacity(sys, d, 0, res, certTol); err != nil {
		t.Fatalf("global certificate: %v", err)
	}
	_, detCap, err := BestDeterministic(sys, d)
	if err != nil {
		t.Fatal(err)
	}
	// Strict dominance, with real margin: the randomized optimum must beat
	// the best deterministic assignment by well over float noise.
	if res.Capacity <= detCap*1.01 {
		t.Fatalf("optimized capacity %.3f does not strictly beat deterministic %.3f",
			res.Capacity, detCap)
	}

	// Read-only and write-only workloads have closed forms: all sites serve
	// in parallel, so capacity is the total read (write) capacity divided by
	// the fraction of sites a quorum must touch — here every minimal quorum
	// has 3 of 5 sites, giving Σcap·(5/3)/5 = Σcap/3.
	r1, err := OptimizeCapacity(sys, SingleFr(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 16000.0 / 3; math.Abs(r1.Capacity-want) > 1e-6*want {
		t.Fatalf("fr=1 capacity %.6f, want %.6f", r1.Capacity, want)
	}
	r0, err := OptimizeCapacity(sys, SingleFr(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 8000.0 / 3; math.Abs(r0.Capacity-want) > 1e-6*want {
		t.Fatalf("fr=0 capacity %.6f, want %.6f", r0.Capacity, want)
	}

	// Demanding 1-resilience costs capacity, never gains it, and certifies
	// against the resilient universe.
	res1, err := OptimizeResilientCapacity(sys, d, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CertifyGlobalCapacity(sys, d, 1, res1, certTol); err != nil {
		t.Fatalf("resilient global certificate: %v", err)
	}
	if res1.Capacity > res.Capacity+1e-9 {
		t.Fatalf("1-resilient capacity %.3f exceeds unrestricted %.3f", res1.Capacity, res.Capacity)
	}
}
