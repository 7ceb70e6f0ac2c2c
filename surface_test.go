package conzone

import (
	"go/importer"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow lists the names declared under internal/ that no non-test
// code uses and that stay anyway, each with the reason. A pattern is an
// exact "internal/pkg.Name" / "internal/pkg.Recv.Name" key, a key prefix
// ending in '*', or "*.Name" for a method name on any receiver. An entry that
// no longer excuses anything fails the test, so the list cannot go stale.
var surfaceAllow = []struct{ pattern, reason string }{
	{"*.String", "fmt.Stringer: called by fmt through an interface the module never names"},
	{"*.MarshalJSON", "json.Marshaler: called by encoding/json"},
	{"*.UnmarshalJSON", "json.Unmarshaler: called by encoding/json"},
	{"internal/obs.Recorder.Fingerprint", "determinism oracle: TestReadBurstDeterminism compares it across runs and GOMAXPROCS"},
	{"internal/obs.Telemetry.Stage", "lookup on the public conzone.Telemetry alias; the root and trace tests are its consumers"},
	{"internal/zns.Manager.SetReadOnly", "the only way a zone reaches ReadOnly; the state is audited and persisted, a device-side failure model will call it"},
	{"internal/check.RunSequence*", "oracle drivers: the fuzz targets and seed-corpus tests are their callers by design"},
	{"internal/ftl.FTL.Debug*", "corruption injectors for check.Audit's tests, which audit a live FTL (see ftl/debug.go)"},
	{"internal/mapping.Table.Invalidate", "corruption injector of the same kind: check.Audit's staging-leak test unmaps one sector of a live FTL"},
	{"internal/femu.Device.Array", "public through conzone.FEMUDevice; TestComparatorsMatchParent digests the media counters through it"},
	{"internal/femu.Device.Stats", "public through conzone.FEMUDevice; TestComparatorsMatchParent digests it"},
	{"internal/legacy.Device.Array", "public through conzone.LegacyDevice; TestLegacyMatchesParent digests the media counters through it"},
	{"internal/legacy.Device.Stats", "public through conzone.LegacyDevice; TestLegacyMatchesParent digests it"},
}

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
		t.Fatal(err)
	}
	_, benchInfo, err := m.check(modulePath+"/bench", "bench", func(string) bool { return true })
	if err != nil {
		t.Fatalf("bench/ does not type-check against this tree: %v", err)
	}

	// What non-test code uses, and the interfaces it names.
	used := map[types.Object]bool{}
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
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			used[obj] = true
		}
		for _, tv := range info.Types {
			named(tv.Type)
		}
	}
	absorb(benchInfo)
	for _, info := range m.infos {
		absorb(info)
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

	allowUsed := make([]bool, len(surfaceAllow))
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
				allowUsed[i], ok = true, true
			}
		}
		return ok
	}
	var dead []string
	report := func(dir string, obj types.Object, recv string) {
		if obj.Name() == "_" || obj.Name() == "init" {
			return
		}
		key := dir + "." + obj.Name()
		if recv != "" {
			key = dir + "." + recv + "." + obj.Name()
		}
		if !allowed(key, recv, obj.Name()) {
			dead = append(dead, key+"  ("+m.fset.Position(obj.Pos()).String()+")")
		}
	}
	for pkgPath, pkg := range m.pkgs {
		dir, ok := strings.CutPrefix(pkgPath, modulePath+"/")
		if !ok || !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !used[obj] {
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
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("declared but used by no non-test file of the module or bench/: %s", d)
	}
	for i, a := range surfaceAllow {
		if !allowUsed[i] {
			t.Errorf("stale allowlist entry %q (%s): it excuses nothing", a.pattern, a.reason)
		}
	}
	if len(surfaceAllow) > 15 {
		t.Errorf("allowlist has %d entries; the budget is 15", len(surfaceAllow))
	}
}
