package lint_test

import (
	"fmt"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/load"
)

// surfaceHooks are the exported identifiers of internal/... that only
// tests call, kept on purpose because they read or write state a test
// cannot reach otherwise. Each carries a doc line saying it is a test
// hook. Keys are "pkg.Name" or "pkg.Type.Method", pkg relative to
// repro/internal.
var surfaceHooks = map[string]string{
	"exec.Elastic.SpareCounts": "the fmm and cluster tests bound a pool's spare workspaces with it",
	"mpi.Comm.AdvanceClock":    "the mpi and parfmm tests model skewed ranks by charging virtual time",
	"obs.Registry.Families":    "the service tests check every metric family against the README with it",
}

// dynamicMethods are methods the standard library finds by interface
// assertion (fmt's Stringer, errors' Unwrap and Is) rather than through
// a call the scan can see.
var dynamicMethods = map[string]bool{"String": true, "Unwrap": true, "Is": true}

// TestProductionSurface loads both modules, the root one and bench/,
// with the loader kifmm-lint uses, and fails for every exported
// package-level identifier or exported method declared in internal/...
// that no non-test file references. A method also counts as used when
// its type implements, by method names, an interface whose method of
// that name some non-test file calls. The root package, client and
// cmd/ are public API and out of scope.
func TestProductionSurface(t *testing.T) {
	var pkgs []*load.Package
	for _, dir := range []string{"../..", "../../bench"} {
		ps, err := load.Load(filepath.FromSlash(dir), "./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, ps...)
	}

	used := make(map[string]bool)
	called := make(map[*types.Interface]bool)
	for _, pkg := range pkgs {
		for _, obj := range pkg.TypesInfo.Uses {
			if it := interfaceOf(obj); it != nil {
				called[it] = true
			} else if k := surfaceKey(obj); k != "" {
				used[k] = true
			}
		}
	}
	for _, pkg := range pkgs {
		markImplemented(pkg, called, used)
	}

	var missing []string
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, "repro/internal/") {
			continue
		}
		for _, obj := range declared(pkg) {
			k := surfaceKey(obj)
			seen[k] = true
			if used[k] || dynamicMethod(obj) {
				continue
			}
			if _, ok := surfaceHooks[k]; ok {
				continue
			}
			pos := pkg.Fset.Position(obj.Pos())
			missing = append(missing, fmt.Sprintf("%s:%d %s", pos.Filename, pos.Line, k))
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s: exported, but no non-test file uses it", m)
	}
	for k := range surfaceHooks {
		if !seen[k] {
			t.Errorf("allowlisted test hook %s is not declared", k)
		} else if used[k] {
			t.Errorf("allowlisted test hook %s has a production caller: drop it from the list", k)
		}
	}
}

// declared returns pkg's exported package-level objects and the
// exported methods of its named types.
func declared(pkg *load.Package) []types.Object {
	var objs []types.Object
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						objs = append(objs, m)
					}
				}
			}
		}
		if obj.Exported() {
			objs = append(objs, obj)
		}
	}
	return objs
}

// surfaceKey names obj as "pkg.Name" or "pkg.Type.Method", pkg relative
// to repro/internal, or returns "" for anything else. Keys compare
// across the type-checks of both modules, where one package may appear
// both from source and from export data.
func surfaceKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() {
		return ""
	}
	rel, ok := strings.CutPrefix(obj.Pkg().Path(), "repro/internal/")
	if !ok {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "" // method of an interface literal
			}
			return rel + "." + named.Obj().Name() + "." + fn.Name()
		}
		return rel + "." + fn.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // field, parameter or local
	}
	return rel + "." + obj.Name()
}

// interfaceOf returns the interface obj is a method of, or nil.
func interfaceOf(obj types.Object) *types.Interface {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	it, _ := recv.Type().Underlying().(*types.Interface)
	return it
}

// markImplemented marks as used every method through which a named
// type of pkg, or a pointer to it, has all the methods of a called
// interface: the interface's methods are then reached by dynamic
// dispatch. Methods match by name, which compares across type-checks;
// a promoted method marks the embedded type's method.
func markImplemented(pkg *load.Package, called map[*types.Interface]bool, used map[string]bool) {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if _, ok := tn.Type().Underlying().(*types.Interface); ok {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
	next:
		for it := range called {
			for i := 0; i < it.NumMethods(); i++ {
				if ms.Lookup(nil, it.Method(i).Name()) == nil {
					continue next
				}
			}
			for i := 0; i < it.NumMethods(); i++ {
				if k := surfaceKey(ms.Lookup(nil, it.Method(i).Name()).Obj()); k != "" {
					used[k] = true
				}
			}
		}
	}
}

// dynamicMethod reports whether obj is a method the standard library
// finds by interface assertion.
func dynamicMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil && dynamicMethods[fn.Name()]
}
