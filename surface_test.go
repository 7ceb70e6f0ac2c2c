package conzone

import (
	"go/ast"
	"go/doc"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// surfaceAllow lists the names with no caller that stay anyway, each with the
// reason. A pattern is an exact "internal/pkg.Name" / "internal/pkg.Recv.Name"
// or "conzone.Name" / "conzone.Recv.Name" key, a key prefix ending in '*', or
// "*.Name" for a method name on any receiver. An entry that no longer excuses
// anything fails the test, so the list cannot go stale.
var surfaceAllow = []struct{ pattern, reason string }{
	{"*.String", "fmt.Stringer: called by fmt through an interface the module never names"},
	{"*.MarshalJSON", "json.Marshaler: called by encoding/json"},
	{"*.UnmarshalJSON", "json.Unmarshaler: called by encoding/json"},
	{"internal/obs.Recorder.Fingerprint", "determinism oracle: TestReadBurstDeterminism compares it across runs and GOMAXPROCS"},
	{"internal/obs.Telemetry.Stage", "lookup on the public conzone.Telemetry alias; the root and trace tests are its consumers"},
	{"internal/zns.Manager.SetReadOnly", "the only way a zone reaches ReadOnly; the state is audited and persisted, a device-side failure model will call it"},
	{"internal/check.RunSequence*", "oracle drivers: the fuzz targets and seed-corpus tests are their callers by design"},
	{"internal/ftl.FTL.Debug*", "corruption injectors for check.Audit's tests, which audit a live FTL (see ftl/debug.go)"},
	{"internal/femu.Device.Array", "public through conzone.FEMUDevice; TestComparatorsMatchParent digests the media counters through it"},
	{"internal/femu.Device.Stats", "public through conzone.FEMUDevice; TestComparatorsMatchParent digests it"},
	{"internal/legacy.Device.Array", "public through conzone.LegacyDevice; TestLegacyMatchesParent digests the media counters through it"},
	{"internal/legacy.Device.Stats", "public through conzone.LegacyDevice; TestLegacyMatchesParent digests it"},
}

// surfaceScan is what one type-checked walk of the module finds: the keys of
// the declarations nothing uses, with their positions, and which allowlist
// entries excused one.
type surfaceScan struct {
	dead      []string
	allowUsed []bool
}

var (
	surfaceOnce sync.Once
	surface     surfaceScan
	surfaceErr  error
)

// TestInternalSurfaceHasCallers is the "no surface without a caller" rule as a
// test: every package-level func, type, const and var and every method
// declared in a non-test file of an internal/ package — exported or not —
// must be used by some non-test file of this module or by bench/*.go. Uses
// are resolved by the type checker (the moduleImporter of
// bench_surface_test.go walks the module once), so a dead method that shares
// its name with a live one is reported; a method also counts as used when
// its type satisfies an interface that non-test code names — as a type, or
// in the signature of something it calls — and that interface has the
// method. ftl/benchcompat.go's three methods need no entry while the frozen
// bench/trace.go demands them of *FTL; they fall out with it.
func TestInternalSurfaceHasCallers(t *testing.T) {
	checkSurface(t, "internal/", "declared but used by no non-test file of the module or bench/")
	if len(surfaceAllow) > 15 {
		t.Errorf("allowlist has %d entries; the budget is 15", len(surfaceAllow))
	}
}

// TestPublicSurfaceHasCallers is the same rule for the library's API: every
// function and method declared in a non-test file of the root package must be
// used by a non-test file of the module (the root's own files count), by
// bench/*.go, or by a runnable Example (one with an "// Output:" comment) in
// example_test.go, so each call a library user is offered runs somewhere.
// Interface satisfaction counts as for internal/: the scrape endpoint's
// adapter feeds telemetry.Source and *Device feeds workload.ByteZoned. Type aliases, constants and
// sentinel error variables are exempt: they are the one-line vocabulary an
// importer outside the module needs to name what the public signatures carry.
func TestPublicSurfaceHasCallers(t *testing.T) {
	checkSurface(t, "conzone.", "exported but called by no non-test file of the module, bench/ or runnable Example")
}

// checkSurface reports the scan's dead keys that start with scope, and the
// stale allowlist entries of that scope (the "*." patterns are internal/'s).
func checkSurface(t *testing.T, scope, what string) {
	surfaceOnce.Do(func() { surface, surfaceErr = scanSurface() })
	if surfaceErr != nil {
		t.Fatal(surfaceErr)
	}
	for _, d := range surface.dead {
		if strings.HasPrefix(d, scope) {
			t.Errorf("%s: %s", what, d)
		}
	}
	for i, a := range surfaceAllow {
		if (strings.HasPrefix(a.pattern, "conzone.") == (scope == "conzone.")) && !surface.allowUsed[i] {
			t.Errorf("stale allowlist entry %q (%s): it excuses nothing", a.pattern, a.reason)
		}
	}
}

func scanSurface() (surfaceScan, error) {
	m := &moduleImporter{fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || p == "bench") {
			return filepath.SkipDir
		}
		if src, _ := filepath.Glob(filepath.Join(p, "*.go")); len(src) == 0 {
			return nil
		}
		_, err = m.Import(path.Join(modulePath, filepath.ToSlash(p)))
		return err
	})
	if err != nil {
		return surfaceScan{}, err
	}
	_, benchInfo, err := m.check(modulePath+"/bench", "bench", func(string) bool { return true })
	if err != nil {
		return surfaceScan{}, err
	}

	// What non-test code uses, and the interfaces it names.
	used := map[types.Object]bool{}
	use := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}
	var ifaces []*types.Interface
	seen := map[types.Type]bool{}
	var named func(types.Type)
	named = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch u := typ.(type) {
		case *types.Named:
			if i, ok := u.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, i)
			}
		case *types.Interface:
			ifaces = append(ifaces, u)
		case *types.Signature:
			for i := 0; i < u.Params().Len(); i++ {
				named(u.Params().At(i).Type())
			}
			for i := 0; i < u.Results().Len(); i++ {
				named(u.Results().At(i).Type())
			}
		case interface{ Elem() types.Type }: // pointer, slice, array, map, chan
			named(u.Elem())
		}
	}
	absorb := func(info *types.Info) {
		for _, obj := range info.Uses {
			use(obj)
		}
		for _, tv := range info.Types {
			named(tv.Type)
		}
	}
	absorb(benchInfo)
	for _, info := range m.infos {
		absorb(info)
	}
	if err := absorbExamples(m, use); err != nil {
		return surfaceScan{}, err
	}
	satisfies := func(fn *types.Func, recv *types.Named) bool {
		if recv.TypeParams().Len() > 0 {
			return false
		}
		for _, i := range ifaces {
			for k := 0; k < i.NumMethods(); k++ {
				if i.Method(k).Id() == fn.Id() && (types.Implements(recv, i) || types.Implements(types.NewPointer(recv), i)) {
					return true
				}
			}
		}
		return false
	}

	s := surfaceScan{allowUsed: make([]bool, len(surfaceAllow))}
	allowed := func(key, recv, name string) bool {
		ok := false
		for i, a := range surfaceAllow {
			var hit bool
			switch {
			case strings.HasPrefix(a.pattern, "*."):
				hit = recv != "" && name == a.pattern[2:]
			case strings.HasSuffix(a.pattern, "*"):
				hit = strings.HasPrefix(key, strings.TrimSuffix(a.pattern, "*"))
			default:
				hit = key == a.pattern
			}
			if hit {
				s.allowUsed[i], ok = true, true
			}
		}
		return ok
	}
	report := func(dir string, obj types.Object, recv string) {
		if obj.Name() == "_" || obj.Name() == "init" {
			return
		}
		key := dir + "." + obj.Name()
		if recv != "" {
			key = dir + "." + recv + "." + obj.Name()
		}
		if !allowed(key, recv, obj.Name()) {
			s.dead = append(s.dead, key+"  ("+m.fset.Position(obj.Pos()).String()+")")
		}
	}
	for pkgPath, pkg := range m.pkgs {
		dir, ok := strings.CutPrefix(pkgPath, modulePath+"/")
		root := pkgPath == modulePath
		if root {
			dir = "conzone"
		} else if !ok || !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			// The root's package-level names other than functions are exempt.
			if _, fn := obj.(*types.Func); !used[obj] && (!root || fn) {
				report(dir, obj, "")
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			recv, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < recv.NumMethods(); i++ {
				if fn := recv.Method(i); !used[fn] && !satisfies(fn, recv) {
					report(dir, fn, name)
				}
			}
		}
	}
	sort.Strings(s.dead)
	return s, nil
}

// absorbExamples type-checks example_test.go against the root package and
// passes use every object the body of a runnable Example names.
func absorbExamples(m *moduleImporter, use func(types.Object)) error {
	f, err := parser.ParseFile(m.fset, "example_test.go", nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{Importer: m}).Check(modulePath+"_test", m.fset, []*ast.File{f}, info); err != nil {
		return err
	}
	for _, ex := range doc.Examples(f) {
		if ex.Output == "" && !ex.EmptyOutput {
			continue
		}
		ast.Inspect(ex.Code, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
				use(info.Uses[id])
			}
			return true
		})
	}
	return nil
}
