package quorumkit

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAPI is the one list of exported functions and methods under
// internal/ that no non-test file uses and that are kept on purpose, keyed
// pkg.Name for a function and pkg.Recv.Name for a method (Recv is the
// receiver's type, an interface's name for an interface method). Every other
// exported function and method under internal/ must be used by the program
// itself: the packages it is declared in, cmd/, examples/, bench/ or the
// facade.
var testOnlyAPI = map[string]string{
	"faults.Churn.DownCounts":        "the churn accounting pinned tests read",
	"faults.Churn.ActiveShocks":      "the shock accounting pinned tests read",
	"faults.LinkSchedule.ActiveCuts": "the partition accounting pinned tests read",
	"faults.LinkSchedule.NumRules":   "the rule accounting pinned tests read",
	"store.MemDisk.Dump":             "the byte image the parity test compares (ROADMAP 1a hashes it)",
	"obs.Trace.Filter":               "the trace query the cluster and sim tests make across package lines",
	"cluster.Cluster.NodeStamp":      "the per-node stamp the metamorphic suite compares",
	"cluster.Cluster.NodeValue":      "the per-node value the metamorphic suite compares",
	"cluster.Async.StartDaemon":      "the one driver that runs the daemon concurrently with operations, run under -race",
	"coterie.FromQuorums":            "explicit-set systems, fixtures for the System.Validate claims DESIGN §20 cites",
	"coterie.TreeSystem":             "the tree family, a fixture for the System.Validate claims DESIGN §20 cites",
	"coterie.FanoSystem":             "the Fano plane, a fixture for the System.Validate claims DESIGN §20 cites",
	"graph.State.NumComponents":      "the state's basic observable, asserted across the graph tests",
	"obs.Registry.Counter":           "how tests read a live counter",
	"obs.Snapshot.Counter":           "how tests read a counter; the metamorphic suite reads it",
	"obs.Registry.Gauge":             "how tests read a live gauge",
	"obs.Snapshot.Gauge":             "how tests read a gauge",
	"obs.Snapshot.Delta":             "what a phase of a run changed, the phase assertions' instrument",
	"core.Estimator.Density":         "one site's §4.2 estimate f_i, read by the estimation tests of four packages",
	"dist.Exact":                     "the exact density oracle the scenario engine and the closed forms are pinned to",
	"dist.MonteCarlo":                "the sampling oracle the scenario sampler's random stream is pinned to",
	"coterie.VoteInducible":          "backs EXPERIMENTS' claim that grid and Fano coteries are not vote-inducible",
	"coterie.Availability":           "the one-call exact evaluation of a coterie on a topology, as EXPERIMENTS' coterie tests use it",
	"cluster.Async.Reassign":         "serializes a QR reassignment with the concurrent runtime's other operations; without it the async tests would reach the coordinator's unlocked Reassign",
	"core.Estimator.Weight":          "one site's recorded observation weight, read by the estimation tests of core, cluster and sim",
	"dist.PMF.Normalize":             "how the dist and core tests turn sampled counts into a PMF",
}

// implicitMethods are method names the standard library calls through an
// interface (fmt, errors, encoding/json, sort, container/heap), so a method
// with one of them is used without a call to it in the program.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// module is the import path of the repository root.
const module = "quorumkit"

// apiDecl is one exported function or method declared under internal/.
type apiDecl struct {
	key, where string
	used       bool
}

// TestNoTestOnlyAPI type-checks every non-test Go file in the module and
// fails on each exported function or method declared under internal/ that
// the program never uses (apiUses has the rules), unless testOnlyAPI lists
// it with a reason.
func TestNoTestOnlyAPI(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
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
		f, err := parser.ParseFile(fset, filepath.ToSlash(path), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	decls, err := apiUses(fset, files, importer.Default())
	if err != nil {
		t.Fatal(err)
	}

	unused := map[string]bool{}
	for _, d := range decls {
		unused[d.key] = !d.used
		if !d.used && testOnlyAPI[d.key] == "" {
			t.Errorf("%s: %s is exported but only tests call it: delete it, or list it in testOnlyAPI with the reason it stays", d.where, d.key)
		}
	}
	for key := range testOnlyAPI {
		if isUnused, ok := unused[key]; !ok {
			t.Errorf("testOnlyAPI lists %s, which no longer exists under internal/", key)
		} else if !isUnused {
			t.Errorf("testOnlyAPI lists %s, which a non-test file now uses: take it off the list", key)
		}
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// apiUses type-checks files, grouped into packages by directory (a file's
// name is its path from the module root), and returns, sorted by key, every
// exported function and method declared in a package under internal/, and
// every method an interface there declares explicitly, with whether the
// program uses it. Imports outside the module come from std. The rules:
//   - A declaration is used when some identifier resolves to it, through
//     (*types.Func).Origin, outside the declaration's own body. A generic
//     method called on an instantiation is therefore used; a function whose
//     only use is a call to itself is not.
//   - A concrete method is also used when it implements an interface method
//     the program calls: some named type of the module implements the
//     interface and holds the method in its method set, promoted through
//     embedding included.
//   - An interface method is used only when the program calls it through an
//     interface.
//   - Methods named in implicitMethods are skipped.
func apiUses(fset *token.FileSet, files []*ast.File, std types.Importer) ([]apiDecl, error) {
	byDir := map[string][]*ast.File{}
	for _, f := range files {
		dir := path.Dir(fset.Position(f.Package).Filename)
		byDir[dir] = append(byDir[dir], f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	checked := map[string]*types.Package{}
	var check func(dir string) (*types.Package, error)
	imp := importerFunc(func(ipath string) (*types.Package, error) {
		if ipath == module {
			return check(".")
		}
		if dir, ok := strings.CutPrefix(ipath, module+"/"); ok {
			return check(dir)
		}
		return std.Import(ipath)
	})
	check = func(dir string) (*types.Package, error) {
		if pkg := checked[dir]; pkg != nil {
			return pkg, nil
		}
		ipath := module
		if dir != "." {
			ipath += "/" + dir
		}
		pkg, err := (&types.Config{Importer: imp}).Check(ipath, fset, byDir[dir], info)
		checked[dir] = pkg
		return pkg, err
	}
	dirs := make([]string, 0, len(byDir))
	for dir := range byDir {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if _, err := check(dir); err != nil {
			return nil, err
		}
	}

	// The declarations in scope, and the span of each one's own body.
	type span struct{ pos, end token.Pos }
	decls := map[*types.Func]*apiDecl{}
	body := map[*types.Func]span{}
	add := func(fn *types.Func, recv string, pos token.Pos) {
		key := fn.Pkg().Name() + "." + fn.Name()
		if recv != "" {
			key = fn.Pkg().Name() + "." + recv + "." + fn.Name()
		}
		decls[fn] = &apiDecl{key: key, where: fset.Position(pos).String()}
	}
	for _, dir := range dirs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range byDir[dir] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || (d.Recv != nil && implicitMethods[d.Name.Name]) {
						continue
					}
					fn := info.Defs[d.Name].(*types.Func)
					recv := ""
					if r := fn.Type().(*types.Signature).Recv(); r != nil {
						recv = namedOf(r.Type()).Obj().Name()
					}
					add(fn, recv, d.Pos())
					body[fn] = span{d.Pos(), d.End()}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok {
							continue
						}
						iface, ok := info.Defs[ts.Name].Type().Underlying().(*types.Interface)
						if !ok {
							continue
						}
						for i := 0; i < iface.NumExplicitMethods(); i++ {
							if m := iface.ExplicitMethod(i); m.Exported() && !implicitMethods[m.Name()] {
								add(m, ts.Name.Name, m.Pos())
							}
						}
					}
				}
			}
		}
	}

	// Direct uses, and the interface methods the program calls.
	used := map[*types.Func]bool{}
	var called []*types.Func
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if b, ok := body[fn]; ok && b.pos <= id.Pos() && id.Pos() < b.end {
			continue
		}
		if used[fn] {
			continue
		}
		used[fn] = true
		if r := fn.Type().(*types.Signature).Recv(); r != nil && types.IsInterface(r.Type()) {
			called = append(called, fn)
		}
	}

	// Concrete methods that implement a called interface method.
	for _, pkg := range checked {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			for _, im := range called {
				sel := mset.Lookup(im.Pkg(), im.Name())
				if sel == nil {
					continue
				}
				iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
				if types.Implements(ptr, iface) {
					used[sel.Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}

	out := make([]apiDecl, 0, len(decls))
	for fn, d := range decls {
		d.used = used[fn]
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

// namedOf returns the named type of a method receiver, through a pointer.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// TestAPIUsesResolvesTypes feeds apiUses one in-memory package whose
// declarations a name-based scan gets wrong: B.Read shares its name with the
// used A.Read, and Outer.Kind with an interface method nobody calls.
func TestAPIUsesResolvesTypes(t *testing.T) {
	const src = `package p

type A struct{}

func (A) Read() int { return 1 }

type B struct{}

func (B) Read() int { return 2 }

type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

type inner struct{}

func (inner) Name() string { return "inner" }

type Outer struct{ inner }

func (Outer) Kind() int { return 0 }

type Namer interface {
	Name() string
	Kind() int
}

func Loop(n int) int {
	if n == 0 {
		return 0
	}
	return Loop(n - 1)
}

func use(n Namer) int {
	var b Box[int]
	return len(n.Name()) + A{}.Read() + b.Get()
}

var _ = use(Outer{})
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "internal/p/p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	decls, err := apiUses(fset, []*ast.File{f}, importer.Default())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, d := range decls {
		got[d.key] = d.used
	}
	for _, c := range []struct {
		key  string
		used bool
	}{
		{"p.A.Read", true},
		{"p.B.Read", false},     // dead beside a used method of the same name
		{"p.Box.Get", true},     // generic, called only on Box[int]
		{"p.inner.Name", true},  // promoted into Outer, called through Namer
		{"p.Namer.Name", true},  // called through the interface
		{"p.Namer.Kind", false}, // declared, never called through Namer
		{"p.Outer.Kind", false}, // implements only that uncalled method
		{"p.Loop", false},       // its only use is a call to itself
	} {
		if used, ok := got[c.key]; !ok {
			t.Errorf("%s: not among the declarations", c.key)
		} else if used != c.used {
			t.Errorf("%s: used = %v, want %v", c.key, used, c.used)
		}
		delete(got, c.key)
	}
	for key := range got {
		t.Errorf("%s: unexpected declaration", key)
	}
}
