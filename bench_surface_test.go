package conzone

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// moduleImporter type-checks this module's packages from source, relative to
// the repository root, and leaves everything else to the compiler's export
// data — so bench/, a module of its own, can be checked from the root
// package's test without building it.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	infos map[string]*types.Info // nil, or filled beside pkgs for a caller that walks the module
}

const modulePath = "github.com/conzone/conzone"

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, modulePath)
	if !ok || (dir != "" && dir[0] != '/') {
		return m.std.Import(path)
	}
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	pkg, info, err := m.check(path, "."+dir, func(name string) bool { return !strings.HasSuffix(name, "_test.go") })
	m.pkgs[path] = pkg
	if m.infos != nil {
		m.infos[path] = info
	}
	return pkg, err
}

// check parses the files of dir that keep accepts and type-checks them as
// one package.
func (m *moduleImporter) check(path, dir string, keep func(name string) bool) (*types.Package, *types.Info, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if !keep(filepath.Base(name)) {
			continue
		}
		f, err := parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	return pkg, info, err
}

// TestBenchSurfacePinned pins what the frozen benchmark holds still: every
// package-level name bench/*.go selects through an import of this module
// ("internal/pkg.Name") and every method or field it selects on a value of
// one of this module's types ("internal/pkg.Type.Name"), sorted, against
// testdata/bench_surface.golden. "bench/ is frozen" in an issue reads "the
// golden is unchanged"; a refactor that renames or removes one of the names
// fails here, naming it, before bench/ stops compiling. To accept a
// deliberate change, edit the golden: one name per line.
func TestBenchSurfacePinned(t *testing.T) {
	m := &moduleImporter{fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*types.Package{}}
	_, info, err := m.check(modulePath+"/bench", "bench", func(string) bool { return true })
	if err != nil {
		t.Fatalf("bench/ does not type-check against this tree: %v", err)
	}

	// member records pkg.Type.name for a method or field of one of our types.
	set := map[string]bool{}
	member := func(owner types.Type, obj types.Object) {
		if obj.Pkg() == nil { // error.Error
			return
		}
		rel, ok := strings.CutPrefix(obj.Pkg().Path(), modulePath)
		if !ok || strings.HasPrefix(rel, "/bench") {
			return
		}
		if fn, ok := obj.(*types.Func); ok {
			owner = fn.Type().(*types.Signature).Recv().Type() // the declaring type, not an embedder
		}
		if ptr, ok := owner.(*types.Pointer); ok {
			owner = ptr.Elem()
		}
		name := "struct" // a variable of unnamed struct type
		if named, ok := owner.(*types.Named); ok {
			name = named.Obj().Name()
		}
		set[fmt.Sprintf("conzone%s.%s.%s", rel, name, obj.Name())] = true
	}
	for _, s := range info.Selections {
		member(s.Recv(), s.Obj())
	}
	for expr, tv := range info.Types {
		lit, ok := expr.(*ast.CompositeLit)
		if !ok {
			continue
		}
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok {
					if f, ok := info.Uses[key].(*types.Var); ok && f.IsField() {
						member(tv.Type, f)
					}
				}
			}
		}
	}
	for id, obj := range info.Uses {
		if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
			continue // not a package-level name
		}
		if rel, ok := strings.CutPrefix(obj.Pkg().Path(), modulePath); ok && !strings.HasPrefix(rel, "/bench") {
			set["conzone"+rel+"."+id.Name] = true
		}
	}

	const golden = "testdata/bench_surface.golden"
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]bool{}
	for _, line := range strings.Fields(string(b)) {
		pinned[line] = true
	}
	var diff []string
	for name := range set {
		if !pinned[name] {
			diff = append(diff, "added:   "+name)
		}
	}
	for name := range pinned {
		if !set[name] {
			diff = append(diff, "removed: "+name)
		}
	}
	sort.Strings(diff)
	if len(diff) > 0 {
		t.Errorf("what bench/*.go names of this module differs from %s (%d names pinned):\n%s",
			golden, len(pinned), strings.Join(diff, "\n"))
	}
}
