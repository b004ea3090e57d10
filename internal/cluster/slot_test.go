package cluster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// slotExempt lists the exported coordinator methods that need not enter the
// operation slot, each with the reason. Every other exported coordinator
// method reads or replaces state the slot owns (DESIGN §18 "Ownership").
var slotExempt = map[string]string{
	"EnableChaos":        "configuration, called before serving starts",
	"EnableDiskChaos":    "configuration, called before serving starts",
	"EnableSelfHealing":  "configuration, called before serving starts",
	"EnableLinkFaults":   "configuration, called before serving starts",
	"SetObserver":        "configuration, called before serving starts",
	"DisablePersistence": "configuration, called before serving starts",
	"Observer":           "returns the registry SetObserver installed, which serving never replaces",
	"SetPartitionTime":   "stores one atomic, the link schedule's clock",
	"PartitionDrops":     "loads one atomic, the link schedule's drop count",
	"NodeVersion":        "reads one replica under its node lock",
	"NodeAssignment":     "reads one replica under its node lock",
	"Amnesiac":           "reads one replica under its node lock",
	"StoreCounters":      "reads one replica's store under its node lock",
}

// TestOperationsTakeTheSlot parses the package's non-test files and fails,
// by name, on every exported *coordinator method whose first statement is
// not defer k.tr.enter(…)() and that slotExempt does not list. Async and
// Cluster serve these methods unwrapped, so a missing enter is a data race
// in the concurrent runtime that only an unlucky interleaving would show.
func TestOperationsTakeTheSlot(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !fn.Name.IsExported() || !onCoordinator(fn) {
				continue
			}
			method := fn.Name.Name
			seen[method] = true
			enters := entersSlot(fn)
			switch _, exempt := slotExempt[method]; {
			case exempt && enters:
				t.Errorf("%s: coordinator.%s enters the slot; drop its slotExempt entry", fset.Position(fn.Pos()), method)
			case !exempt && !enters:
				t.Errorf("%s: coordinator.%s does not begin with defer k.tr.enter(…)(); enter the slot, or list it in slotExempt with the reason", fset.Position(fn.Pos()), method)
			}
		}
	}
	for method := range slotExempt {
		if !seen[method] {
			t.Errorf("slotExempt lists %s, which is no exported coordinator method", method)
		}
	}
}

// onCoordinator reports whether fn's receiver is *coordinator.
func onCoordinator(fn *ast.FuncDecl) bool {
	star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "coordinator"
}

// entersSlot reports whether fn's first statement is
// defer <recv>.tr.enter(…)().
func entersSlot(fn *ast.FuncDecl) bool {
	if fn.Body == nil || len(fn.Body.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return false
	}
	def, ok := fn.Body.List[0].(*ast.DeferStmt)
	if !ok || len(def.Call.Args) != 0 {
		return false
	}
	inner, ok := def.Call.Fun.(*ast.CallExpr)
	if !ok {
		return false
	}
	enter, ok := inner.Fun.(*ast.SelectorExpr)
	if !ok || enter.Sel.Name != "enter" {
		return false
	}
	tr, ok := enter.X.(*ast.SelectorExpr)
	if !ok || tr.Sel.Name != "tr" {
		return false
	}
	recv, ok := tr.X.(*ast.Ident)
	return ok && recv.Name == fn.Recv.List[0].Names[0].Name
}
