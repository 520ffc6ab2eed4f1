package ppdp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// apiKeep lists the exported functions and methods under internal/ that no
// program calls but that stay on purpose, keyed like unusedAPI reports them,
// with the reason for each.
var apiKeep = map[string]string{
	// Test tools that many tests call.
	"internal/dataset.NewTable":                  "test tool: builds tables in tests across packages",
	"internal/dataset.Table.SetValue":            "test tool: edits cells in tests across packages",
	"internal/dataset.MappedTable.VerifyContent": "test tool: checks a mapped snapshot's content against its address",
	// A decoder of untrusted bytes.
	"internal/dataset.ReadCSVInferred": "decodes untrusted bytes; has its own fuzz target",
	// Test seams.
	"internal/store.NewFaultFS":             "test seam: fault-injecting file system",
	"internal/store.FaultFS.SetWriteBudget": "test seam: short writes",
	"internal/store.FaultFS.FailSyncAfter":  "test seam: failing fsyncs",
	"internal/store.FaultFS.DisarmSync":     "test seam: failing fsyncs",
	"internal/testctx.CancelAfter":          "test seam: cancels after n polls",
	// Methods that satisfy an interface, called through it.
	"internal/testctx.pollLimited.Deadline":         "implements context.Context",
	"internal/algorithms/mondrian.groupsByMin.Less": "implements sort.Interface",
	"internal/algorithms/mondrian.groupsByMin.Swap": "implements sort.Interface",
	"internal/core.Measure.MarshalJSON":             "implements json.Marshaler",
	"internal/core.Measure.UnmarshalJSON":           "implements json.Unmarshaler",
	"internal/policy.Criterion.UnmarshalJSON":       "implements json.Unmarshaler",
	"internal/engine.classified.Unwrap":             "lets errors.Is see the wrapped error",
	// The survey's catalogue of operations, each pinned by its own test.
	"internal/dp.NewGeometric":                "survey catalogue: the geometric mechanism",
	"internal/dp.Exponential":                 "survey catalogue: the exponential mechanism",
	"internal/dp.Accountant.SpendParallel":    "survey catalogue: parallel composition",
	"internal/dp.LaplaceMechanism.ReleaseAll": "survey catalogue: vector Laplace release",
	"internal/generalize.SuppressCells":       "survey catalogue: cell suppression",
}

// TestEveryExportedFunctionHasACaller fails when an exported function or
// method declared in a non-test file under internal/ is named by no non-test
// file in internal/, cmd/, examples/ or loadbench/, unless apiKeep lists it.
// Names are matched by identifier alone, so a name shared with a used
// function elsewhere hides a dead one; the check never flags a live one.
func TestEveryExportedFunctionHasACaller(t *testing.T) {
	unused := unusedAPI(t)
	for _, key := range unused {
		if _, ok := apiKeep[key]; !ok {
			t.Errorf("%s is called by no program: delete it, or list it in apiKeep with the reason it stays", key)
		}
	}
	for key := range apiKeep {
		if !slices.Contains(unused, key) {
			t.Errorf("apiKeep lists %s, which is declared nowhere or has a caller now: drop the entry", key)
		}
	}
}

// unusedAPI returns, sorted, the exported functions and methods under
// internal/ that no non-test file names, as "dir.Func" or "dir.Type.Method".
func unusedAPI(t *testing.T) []string {
	t.Helper()
	type decl struct {
		key  string
		name *ast.Ident
	}
	var decls []decl
	declared := map[*ast.Ident]bool{}
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples", "loadbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			if root == "internal" {
				for _, d := range f.Decls {
					fn, ok := d.(*ast.FuncDecl)
					if !ok || !fn.Name.IsExported() {
						continue
					}
					key := filepath.ToSlash(filepath.Dir(path)) + "."
					if fn.Recv != nil {
						key += receiverType(fn.Recv.List[0].Type) + "."
					}
					decls = append(decls, decl{key + fn.Name.Name, fn.Name})
					declared[fn.Name] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !declared[id] {
					used[id.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var unused []string
	for _, d := range decls {
		if !used[d.name.Name] {
			unused = append(unused, d.key)
		}
	}
	sort.Strings(unused)
	return unused
}

// receiverType names a method's receiver type without pointer or type
// parameters.
func receiverType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverType(x.X)
	case *ast.IndexExpr:
		return receiverType(x.X)
	case *ast.IndexListExpr:
		return receiverType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
