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
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAPI is the one list of exported declarations under internal/ that
// no non-test file uses and that are kept on purpose: functions keyed
// pkg.Name, methods pkg.Recv.Name (Recv is the receiver's type, an
// interface's name for an interface method), types pkg.Type and struct
// fields pkg.Type.Field. Every other exported function, method and type
// under internal/ must be used by the program itself — the packages it is
// declared in, cmd/, examples/, bench/ or the facade — and every exported
// struct field there must be set by it.
var testOnlyAPI = map[string]string{
	"faults.Churn.DownCounts":                 "the churn accounting pinned tests read",
	"faults.Churn.ActiveShocks":               "the shock accounting pinned tests read",
	"faults.LinkSchedule.ActiveCuts":          "the partition accounting pinned tests read",
	"faults.LinkSchedule.NumRules":            "the rule accounting pinned tests read",
	"store.MemDisk.Dump":                      "the byte image the parity test compares (ROADMAP 1a hashes it)",
	"obs.Trace.Filter":                        "the trace query the cluster and sim tests make across package lines",
	"cluster.Cluster.NodeStamp":               "the per-node stamp the metamorphic suite compares",
	"cluster.Cluster.NodeValue":               "the per-node value the metamorphic suite compares",
	"cluster.Async.StartDaemon":               "the one driver that runs the daemon concurrently with operations, run under -race",
	"coterie.FromQuorums":                     "explicit-set systems, fixtures for the System.Validate claims DESIGN §20 cites",
	"coterie.TreeSystem":                      "the tree family, a fixture for the System.Validate claims DESIGN §20 cites",
	"coterie.FanoSystem":                      "the Fano plane, a fixture for the System.Validate claims DESIGN §20 cites",
	"graph.State.NumComponents":               "the state's basic observable, asserted across the graph tests",
	"obs.Registry.Counter":                    "how tests read a live counter",
	"obs.Snapshot.Counter":                    "how tests read a counter; the metamorphic suite reads it",
	"obs.Registry.Gauge":                      "how tests read a live gauge",
	"obs.Snapshot.Gauge":                      "how tests read a gauge",
	"obs.Snapshot.Delta":                      "what a phase of a run changed, the phase assertions' instrument",
	"dist.Exact":                              "the exact density oracle the scenario engine and the closed forms are pinned to",
	"dist.MonteCarlo":                         "the sampling oracle the scenario sampler's random stream is pinned to",
	"coterie.VoteInducible":                   "backs EXPERIMENTS' claim that grid and Fano coteries are not vote-inducible",
	"votes.Scenarios.Availability":            "prices any quorum.System on the exact component table; the coterie tests evaluate the families and EXPERIMENTS' coterie rows with it",
	"core.Estimator.Weight":                   "one site's recorded observation weight, read by the estimation tests of core, cluster and sim",
	"dist.PMF.Normalize":                      "how the dist and core tests turn sampled counts into a PMF",
	"sim.Params.AccessWeights":                "the paper's non-uniform per-site access rates r_i/w_i, which the skew tests pin against the uniform model",
	"cluster.AdversaryConfig.AmnesiaFraction": "scenario amnesia, which the durable, adversary and resolve-memo tests compose with churn",
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

// apiDecl is one exported declaration under internal/; verb says how the
// program uses one of its kind (calls a function, names a type, sets a
// field).
type apiDecl struct {
	key, where, verb string
	used             bool
}

// TestNoTestOnlyAPI type-checks every non-test Go file in the module and
// fails on each exported function, method, type or struct field declared
// under internal/ that the program never uses (apiUses has the rules),
// unless testOnlyAPI lists it with a reason.
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
			t.Errorf("%s: %s is exported but no non-test code %s it: delete it, or list it in testOnlyAPI with the reason it stays", d.where, d.key, d.verb)
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
// exported function, method and type declared in a package under internal/,
// every exported field of a struct type declared there, and every method an
// interface there declares explicitly, with whether the program uses it.
// Imports outside the module come from std. The rules:
//   - A function or method is used when some identifier resolves to it,
//     through (*types.Func).Origin, outside the declaration's own body. A
//     generic method called on an instantiation is therefore used; a
//     function whose only use is a call to itself is not.
//   - A concrete method is also used when it implements an interface method
//     the program calls: some named type of the module implements the
//     interface and holds the method in its method set, promoted through
//     embedding included.
//   - An interface method is used only when the program calls it through an
//     interface.
//   - Methods named in implicitMethods are skipped.
//   - A type is used when an identifier outside its own declaration and
//     methods names it. A name inside another type's declaration or methods
//     counts only once that type is used, so a type named only by unused
//     types stays unused.
//   - A field is used when it is written: a composite literal sets it, or
//     it is the target of an assignment, ++/--, & or a range clause, also
//     under an index, a dereference or a field selection (x.F[i] = v and
//     *x.F = v write F). Embedded fields and fields with a json tag, which
//     a decoder writes, are skipped.
func apiUses(fset *token.FileSet, files []*ast.File, std types.Importer) ([]apiDecl, error) {
	byDir := map[string][]*ast.File{}
	for _, f := range files {
		dir := path.Dir(fset.Position(f.Package).Filename)
		byDir[dir] = append(byDir[dir], f)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
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

	// The declarations in scope; the span of each function's own body; and
	// each type's own spans, its declaration and its methods.
	decls := map[types.Object]*apiDecl{}
	body := map[*types.Func]span{}
	own := map[*types.TypeName][]span{}
	add := func(obj types.Object, name, verb string, pos token.Pos) {
		key := obj.Pkg().Name() + "." + name
		decls[obj] = &apiDecl{key: key, where: fset.Position(pos).String(), verb: verb}
	}
	for _, dir := range dirs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range byDir[dir] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := info.Defs[d.Name].(*types.Func)
					name := fn.Name()
					if r := fn.Type().(*types.Signature).Recv(); r != nil {
						tn := namedOf(r.Type()).Obj()
						own[tn] = append(own[tn], span{d.Pos(), d.End()})
						if implicitMethods[name] {
							continue
						}
						name = tn.Name() + "." + name
					}
					if d.Name.IsExported() {
						add(fn, name, "calls", d.Pos())
						body[fn] = span{d.Pos(), d.End()}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok {
							continue
						}
						tn := info.Defs[ts.Name].(*types.TypeName)
						own[tn] = append(own[tn], span{ts.Pos(), ts.End()})
						if ts.Name.IsExported() {
							add(tn, tn.Name(), "names", ts.Pos())
						}
						if st, ok := ts.Type.(*ast.StructType); ok {
							for _, fl := range st.Fields.List {
								if len(fl.Names) == 0 || jsonTagged(fl.Tag) {
									continue
								}
								for _, n := range fl.Names {
									if n.IsExported() {
										add(info.Defs[n], tn.Name()+"."+n.Name, "sets", n.Pos())
									}
								}
							}
						}
						iface, ok := tn.Type().Underlying().(*types.Interface)
						if !ok {
							continue
						}
						for i := 0; i < iface.NumExplicitMethods(); i++ {
							if m := iface.ExplicitMethod(i); m.Exported() && !implicitMethods[m.Name()] {
								add(m, tn.Name()+"."+m.Name(), "calls", m.Pos())
							}
						}
					}
				}
			}
		}
	}

	// The own spans of the types in scope, sorted, so that a position finds
	// the type whose declaration or method it is in.
	var owned []ownSpan
	for tn, spans := range own {
		if decls[tn] == nil {
			continue
		}
		for _, s := range spans {
			owned = append(owned, ownSpan{s, tn})
		}
	}
	sort.Slice(owned, func(i, j int) bool { return owned[i].pos < owned[j].pos })
	ownerAt := func(pos token.Pos) *types.TypeName {
		i := sort.Search(len(owned), func(i int) bool { return owned[i].pos > pos }) - 1
		if i >= 0 && pos < owned[i].end {
			return owned[i].tn
		}
		return nil
	}

	// Direct uses, the interface methods the program calls, and which types
	// name which.
	used := map[types.Object]bool{}
	namedIn := map[*types.TypeName][]*types.TypeName{}
	var called []*types.Func
	for id, obj := range info.Uses {
		switch obj := obj.(type) {
		case *types.TypeName:
			if decls[obj] == nil {
				continue
			}
			switch owner := ownerAt(id.Pos()); owner {
			case obj:
			case nil:
				used[obj] = true
			default:
				namedIn[obj] = append(namedIn[obj], owner)
			}
		case *types.Func:
			fn := obj.Origin()
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
	}

	// A type named only inside other types is used once one of them is.
	for changed := true; changed; {
		changed = false
		for tn, owners := range namedIn {
			for _, o := range owners {
				if !used[tn] && used[o] {
					used[tn], changed = true, true
				}
			}
		}
	}

	// Fields the program writes.
	var write func(e ast.Expr)
	write = func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					used[sel.Obj().(*types.Var).Origin()] = true
				}
				e = x.X
			default:
				return
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					write(lhs)
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(n.X)
				}
			case *ast.RangeStmt:
				if n.Key != nil {
					write(n.Key)
				}
				if n.Value != nil {
					write(n.Value)
				}
			case *ast.CompositeLit:
				t := info.TypeOf(n)
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						used[info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()] = true
					} else {
						used[st.Field(i).Origin()] = true
					}
				}
			}
			return true
		})
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
	for obj, d := range decls {
		d.used = used[obj]
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

// span is the source range of a declaration.
type span struct{ pos, end token.Pos }

// ownSpan is a declaration or a method of one type.
type ownSpan struct {
	span
	tn *types.TypeName
}

// jsonTagged reports whether a struct field carries a json tag: a decoder
// sets such a field, so the program need not.
func jsonTagged(tag *ast.BasicLit) bool {
	if tag == nil {
		return false
	}
	s, err := strconv.Unquote(tag.Value)
	if err != nil {
		return false
	}
	_, ok := reflect.StructTag(s).Lookup("json")
	return ok
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
// used A.Read, and Outer.Kind with an interface method nobody calls. Knobs
// has a field the program only reads beside one written each way the write
// rule counts, and Core is named only inside Shell, which nothing names.
// The json-tagged Knobs.Tagged is exempt, so it is no declaration at all.
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

type Knobs struct {
	ReadOnly       int
	Keyed          int
	Addr           int
	Elems          []int
	Count          int
	Ptr            *int
	TupleA, TupleB int
	Ranged         int
	Tagged         int ` + "`json:\"tagged\"`" + `
}

type Pair struct{ X, Y int }

type Core struct{}

type Shell struct{ c Core }

func knobs() int {
	k := Knobs{Keyed: 1}
	p := &k.Addr
	k.Elems[0] = 2
	k.Count++
	*k.Ptr = 3
	k.TupleA, k.TupleB = 4, 5
	for k.Ranged = range k.Elems {
	}
	pair := Pair{1, 2}
	return k.ReadOnly + *p + pair.X + k.Tagged
}

var _ = knobs()
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
		{"p.A", true},
		{"p.B", false}, // named only by its own method
		{"p.Box", true},
		{"p.Outer", true},
		{"p.Namer", true},
		{"p.Knobs", true},
		{"p.Knobs.ReadOnly", false}, // read, never written
		{"p.Knobs.Keyed", true},     // keyed literal
		{"p.Knobs.Addr", true},      // &x.F
		{"p.Knobs.Elems", true},     // x.F[i] =
		{"p.Knobs.Count", true},     // x.F++
		{"p.Knobs.Ptr", true},       // *x.F =
		{"p.Knobs.TupleA", true},    // tuple assignment
		{"p.Knobs.TupleB", true},
		{"p.Knobs.Ranged", true}, // range target
		{"p.Pair", true},
		{"p.Pair.X", true}, // positional literal
		{"p.Pair.Y", true},
		{"p.Core", false},  // named only inside Shell
		{"p.Shell", false}, // named nowhere
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
