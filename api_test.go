package quorumkit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAPI is the one list of exported functions and methods under
// internal/ that no non-test file uses and that are kept on purpose. Every
// other exported name under internal/ must be used by the program itself:
// the packages it is declared in, cmd/, examples/, bench/ or the facade.
var testOnlyAPI = map[string]string{
	"DownCounts":    "faults.Churn: the churn accounting pinned tests read",
	"ActiveShocks":  "faults.Churn: the shock accounting pinned tests read",
	"ActiveCuts":    "faults.LinkSchedule: the partition accounting pinned tests read",
	"NumRules":      "faults.LinkSchedule: the rule accounting pinned tests read",
	"Dump":          "store.MemDisk: the byte image the parity test compares (ROADMAP 1a hashes it)",
	"Filter":        "obs.Trace: the trace query the cluster and sim tests make across package lines",
	"NodeStamp":     "cluster.Cluster: the per-node stamp the metamorphic suite compares",
	"NodeValue":     "cluster.Cluster: the per-node value the metamorphic suite compares",
	"StartDaemon":   "cluster.Async: the one driver that runs the daemon concurrently with operations, run under -race",
	"FromQuorums":   "coterie: explicit-set systems, fixtures for the System.Validate claims DESIGN §20 cites",
	"TreeSystem":    "coterie: the tree family, a fixture for the System.Validate claims DESIGN §20 cites",
	"FanoSystem":    "coterie: the Fano plane, a fixture for the System.Validate claims DESIGN §20 cites",
	"NumComponents": "graph.State: the state's basic observable, asserted across the graph tests",
	"Counter":       "obs.Registry and obs.Snapshot: how tests read a counter; the metamorphic suite reads it",
	"Gauge":         "obs.Registry and obs.Snapshot: how tests read a gauge",
	"Delta":         "obs.Snapshot: what a phase of a run changed, the phase assertions' instrument",
	"Density":       "core.Estimator: one site's §4.2 estimate f_i, read by the estimation tests of four packages",
	"Exact":         "dist: the exact density oracle the scenario engine and the closed forms are pinned to",
	"MonteCarlo":    "dist: the sampling oracle the scenario sampler's random stream is pinned to",
	"VoteInducible": "coterie: backs EXPERIMENTS' claim that grid and Fano coteries are not vote-inducible",
}

// implicitMethods are method names the standard library calls through an
// interface (fmt, errors, encoding/json, sort, container/heap), so a method
// with one of them is used without its name appearing in the program.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestNoTestOnlyAPI parses every non-test Go file in the module and fails on
// each exported function or method declared under internal/ whose name is
// never used as an identifier outside its own declaration, unless the name
// is in testOnlyAPI. A use is any identifier with that name anywhere else in
// a non-test file, interface method names included, so a method that
// satisfies a module interface counts as used; methods in implicitMethods
// are skipped. The scan knows names, not types: two declarations that share
// a name are used or unused together.
func TestNoTestOnlyAPI(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	var paths []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		paths = append(paths, filepath.ToSlash(path))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// uses counts every identifier but a function's own name; self counts,
	// per declaration, the uses of its name inside its own body (recursion).
	uses := map[string]int{}
	type decl struct {
		name, where string
		self        int
	}
	var decls []decl
	for i, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				uses[n.Name]++
			case *ast.FuncDecl:
				if n.Name.IsExported() && strings.HasPrefix(paths[i], "internal/") &&
					!(n.Recv != nil && implicitMethods[n.Name.Name]) {
					d := decl{name: n.Name.Name, where: fset.Position(n.Pos()).String()}
					if n.Body != nil {
						ast.Inspect(n.Body, func(m ast.Node) bool {
							if id, ok := m.(*ast.Ident); ok && id.Name == d.name {
								d.self++
							}
							return true
						})
					}
					decls = append(decls, d)
				}
				uses[n.Name.Name]-- // the declaration is not a use
			}
			return true
		})
	}

	var offenders []string
	seen, unused := map[string]bool{}, map[string]bool{}
	for _, d := range decls {
		seen[d.name] = true
		if uses[d.name]-d.self > 0 {
			continue
		}
		unused[d.name] = true
		if testOnlyAPI[d.name] == "" {
			offenders = append(offenders, d.where+": "+d.name)
		}
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Errorf("%s is exported but only tests call it: delete it, or list it in testOnlyAPI with the reason it stays", o)
	}
	for name := range testOnlyAPI {
		if !seen[name] {
			t.Errorf("testOnlyAPI lists %s, which no longer exists under internal/", name)
		} else if !unused[name] {
			t.Errorf("testOnlyAPI lists %s, which a non-test file now uses: take it off the list", name)
		}
	}
}
