package conzone

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllow lists the exported names under internal/ that nothing outside
// a test names and that stay anyway, each with the reason. A pattern is an
// exact "internal/pkg.Name" / "internal/pkg.Recv.Name" key, a key prefix
// ending in '*', or "*.Name" for a method name on any receiver. An entry that
// no longer excuses anything fails the test, so the list cannot go stale.
var surfaceAllow = []struct{ pattern, reason string }{
	{"*.MarshalJSON", "json.Marshaler: called by encoding/json"},
	{"*.UnmarshalJSON", "json.Unmarshaler: called by encoding/json"},
	{"internal/host.pendingHeap.*", "heap.Interface: Less/Swap/Push/Pop are called by container/heap"},
	{"internal/obs.Recorder.Fingerprint", "determinism oracle: TestReadBurstDeterminism compares it across runs and GOMAXPROCS"},
	{"internal/obs.Telemetry.Stage", "lookup on the public conzone.Telemetry alias; the root and trace tests are its consumers"},
	{"internal/zns.Manager.SetReadOnly", "the only way a zone reaches ReadOnly; the state is audited and persisted, a device-side failure model will call it"},
	{"internal/check.RunSequence*", "oracle drivers: the fuzz targets and seed-corpus tests are their callers by design"},
	{"internal/ftl.FTL.Debug*", "corruption injectors for check.Audit's tests, which audit a live FTL (see ftl/debug.go)"},
}

// surfaceDecl is one exported top-level declaration of an internal package.
type surfaceDecl struct {
	key  string // "internal/pkg.Name" or "internal/pkg.Recv.Name"
	name string
	recv string // receiver type name for methods
	pos  token.Position
}

// TestInternalSurfaceHasCallers is the "no surface without a caller" rule as a
// test: every exported top-level func, method, type, const and var declared in
// a non-test file of an internal/ package must be named by some non-test file
// of this module or by bench/*.go. The check is syntactic (go/parser only):
// a package-level name counts as used when another package selects it through
// its import name or its own package mentions it outside the declaration; a
// method counts as used when any scanned file calls a member of that name —
// so it can miss a dead method that shares its name with a live one, and a
// method only ever taken as a value (x.M without a call) needs an entry above.
// ftl/benchcompat.go's three methods need no entry while the frozen
// bench/trace.go forwards them; they fall out with it.
func TestInternalSurfaceHasCallers(t *testing.T) {
	const module = "github.com/conzone/conzone"
	fset := token.NewFileSet()

	type srcFile struct {
		dir string // slash-separated, relative to the module root
		ast *ast.File
	}
	var files []srcFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(p)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir := path.Dir(rel)
		if !strings.HasSuffix(rel, ".go") || (strings.HasSuffix(rel, "_test.go") && dir != "bench") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, srcFile{dir: dir, ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	pkgName := map[string]string{} // dir -> package name
	for _, f := range files {
		pkgName[f.dir] = f.ast.Name.Name
	}

	var decls []surfaceDecl
	declIdent := map[*ast.Ident]bool{} // declaration sites and selector members: not uses
	add := func(dir string, id *ast.Ident, recv string) {
		declIdent[id] = true
		if !id.IsExported() || !strings.HasPrefix(dir, "internal/") {
			return
		}
		key := dir + "." + id.Name
		if recv != "" {
			key = dir + "." + recv + "." + id.Name
		}
		decls = append(decls, surfaceDecl{key: key, name: id.Name, recv: recv, pos: fset.Position(id.Pos())})
	}
	for _, f := range files {
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil && len(d.Recv.List) == 1 {
					// A type's own method receivers are not uses of the type.
					if id := recvTypeIdent(d.Recv.List[0].Type); id != nil {
						declIdent[id] = true
						recv = id.Name
					}
				}
				add(f.dir, d.Name, recv)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(f.dir, s.Name, "")
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(f.dir, id, "")
						}
					}
				}
			}
		}
	}

	qualified := map[string]bool{} // "internal/pkg.Name" selected through an import
	called := map[string]bool{}    // member names selected in call position anywhere
	local := map[string]bool{}     // "dir.Name" mentioned bare inside its own package
	for _, f := range files {
		imports := map[string]string{} // local import name -> dir
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			dir, ok := strings.CutPrefix(p, module+"/")
			if !ok {
				continue
			}
			name := pkgName[dir]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = dir
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					called[sel.Sel.Name] = true
				}
			case *ast.SelectorExpr:
				declIdent[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						qualified[dir+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !declIdent[n] {
					local[f.dir+"."+n.Name] = true
				}
			}
			return true
		})
	}

	used := make([]bool, len(surfaceAllow))
	allowed := func(d surfaceDecl) bool {
		ok := false
		for i, a := range surfaceAllow {
			var m bool
			switch {
			case strings.HasPrefix(a.pattern, "*."):
				m = d.recv != "" && d.name == a.pattern[2:]
			case strings.HasSuffix(a.pattern, "*"):
				m = strings.HasPrefix(d.key, strings.TrimSuffix(a.pattern, "*"))
			default:
				m = d.key == a.pattern
			}
			if m {
				used[i], ok = true, true
			}
		}
		return ok
	}
	var dead []string
	for _, d := range decls {
		if d.recv != "" {
			if called[d.name] {
				continue
			}
		} else if qualified[d.key] || local[d.key] {
			continue
		}
		if !allowed(d) {
			dead = append(dead, d.key+"  ("+d.pos.String()+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but named by no non-test file of the module or bench/: %s", d)
	}
	for i, a := range surfaceAllow {
		if !used[i] {
			t.Errorf("stale allowlist entry %q (%s): it excuses nothing", a.pattern, a.reason)
		}
	}
	if len(surfaceAllow) > 15 {
		t.Errorf("allowlist has %d entries; the budget is 15", len(surfaceAllow))
	}
}

// recvTypeIdent unwraps *T and T[...] to the receiver's type name.
func recvTypeIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}
