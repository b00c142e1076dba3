//go:build !race

// Package surface holds the module's API-surface and layering guards.
// It has no program code: TestExportsHaveCallers type-checks every
// package of the module, and the bench/ module as a caller, from their
// non-test files with the standard library's go/types and its source
// importer, and requires each exported name of an importable package to
// be referenced from outside that package, or to stand on the allowlist
// with a reason. TestLayering (layering_test.go) holds the packages'
// direct imports to the module's layering rules.
//
// The loader (load) is the reusable half: it returns every package with
// its syntax and full types.Info, sharing one *types.Package per import
// path, so a scan of any other property of the non-test code starts from
// it. The tests are kept out of race builds, where they would only be
// slower.
package surface

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// allowed is every exported name kept without a caller outside its
// package, keyed as TestExportsHaveCallers prints it, with the reason:
//
//	public API          pkg/loadshed surface an Example_* test uses, or a
//	                    documented entry point
//	exported signature  a type an exported signature or field names
//	sentinel            an error callers match with errors.Is, or a
//	                    documented format version
//	test oracle         the reference other packages' tests compare against
var allowed = map[string]string{
	"repro/internal/bitmap.MultiRes.Insert":            "test oracle: the per-hash insert InsertMany and InsertSelected are held to",
	"repro/internal/control.BudgetGrant":               "exported signature: NodeTransport.Grant's result",
	"repro/internal/control.ErrCoordinatorUnreachable": "sentinel: CoordClient.Report and Checkpoint return it while disconnected",
	"repro/internal/custom.Mode":                       "exported signature: State.Mode's result, named by the ModeCustom/ModePoliced/ModeDisabled constants",
	"repro/internal/detect.Verdict":                    "exported signature: Detector.Observe's result",
	"repro/internal/experiments.Figure":                "exported signature: the element type of Result.Figures",
	"repro/internal/experiments.Result":                "exported signature: Run's result and Render's argument",
	"repro/internal/experiments.Series":                "exported signature: the element type of Figure.Series",
	"repro/internal/experiments.Table":                 "exported signature: the element type of Result.Tables",
	"repro/internal/features.Extractor.Extract":        "test oracle: the from-scratch vector the engine's sketch paths are compared against",
	"repro/internal/hash.H3.Unit":                      "test oracle: the byte-key form of every sampler's selection",
	"repro/internal/pkt.Packet.AppendAggKey":           "test oracle: the serialised key HashAgg and the flow index are held to",
	"repro/internal/queries.CostModel":                 "exported signature: DefaultCostModel's result",
	"repro/internal/sched.Allocation":                  "exported signature: AllocateInto's result",
	"repro/internal/stats.CDFPoint":                    "exported signature: CDF's result",
	"repro/internal/stats.Pearson":                     "test oracle: the correlation FCBF's centred scans are held to",
	"repro/pkg/loadshed.Anomaly":                       "public API: Example_ddos and Example_drift use it",
	"repro/pkg/loadshed.AsymmetricMix":                 "public API: Example_cluster uses it",
	"repro/pkg/loadshed.CESCA1":                        "public API: Example_ddos uses it",
	"repro/pkg/loadshed.CESCA2":                        "public API: Example_quickstart, _fairshare and _drift use it",
	"repro/pkg/loadshed.CheckpointFormatVersion":       "sentinel: the documented checkpoint format version",
	"repro/pkg/loadshed.Cluster.RunContext":            "public API: one of the eight Run/Stream entry points kept since PR 15",
	"repro/pkg/loadshed.Cluster.StreamContext":         "public API: one of the eight Run/Stream entry points kept since PR 15",
	"repro/pkg/loadshed.ClusterResult":                 "exported signature: Cluster.Run's result",
	"repro/pkg/loadshed.EqualRates":                    "public API: Example_fairshare uses it",
	"repro/pkg/loadshed.ErrSnapshotCorrupt":            "sentinel: returned wrapped by the snapshot and checkpoint decoders",
	"repro/pkg/loadshed.ErrSnapshotVersion":            "sentinel: returned wrapped by the snapshot and checkpoint decoders",
	"repro/pkg/loadshed.IPv4":                          "public API: Example_ddos uses it",
	"repro/pkg/loadshed.NewCounter":                    "public API: Example_quickstart, _cluster and _customshed use it",
	"repro/pkg/loadshed.NewFlows":                      "public API: Example_quickstart, _ddos, _cluster and _customshed use it",
	"repro/pkg/loadshed.NewGradualDrift":               "public API: Example_drift uses it",
	"repro/pkg/loadshed.NewP2PDetector":                "public API: Example_customshed uses it",
	"repro/pkg/loadshed.NewSYNFlood":                   "public API: Example_ddos uses it",
	"repro/pkg/loadshed.NewSelfishP2P":                 "public API: Example_customshed uses it",
	"repro/pkg/loadshed.NewTopK":                       "public API: Example_quickstart uses it",
	"repro/pkg/loadshed.QuerySnapshot":                 "exported signature: the element type of SystemSnapshot.Queries",
	"repro/pkg/loadshed.Result":                        "exported signature: the element type of IntervalResults.Results",
	"repro/pkg/loadshed.ShardRun":                      "exported signature: the element type of ClusterResult.Shards",
	"repro/pkg/loadshed.SnapshotFormatVersion":         "sentinel: the documented snapshot format version",
	"repro/pkg/loadshed.TraceConfig":                   "exported signature: PresetConfig's result and NewGenerator's argument",
	"repro/pkg/loadshed.UPC2":                          "public API: Example_customshed uses it",
}

// pkgInfo is one type-checked package of the module or of bench/.
type pkgInfo struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks the module's packages from source on demand, and
// the standard library through go/importer's source importer. bench/
// is a module of its own, but its import path "repro/bench" names its
// directory under the same rule as the root module's packages.
type loader struct {
	root string
	fset *token.FileSet
	ctxt build.Context
	std  types.ImporterFrom
	pkgs map[string]*pkgInfo
}

// load type-checks every package under root, bench/ included, from its
// non-test files.
func load(root string) ([]*pkgInfo, error) {
	ctxt := build.Default
	ctxt.CgoEnabled = false // the pure-Go variants of net and os/user
	fset := token.NewFileSet()
	l := &loader{
		root: root,
		fset: fset,
		ctxt: ctxt,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*pkgInfo{},
	}
	var paths []string
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if bp, err := ctxt.ImportDir(dir, 0); err == nil && len(bp.GoFiles) > 0 {
			rel, _ := filepath.Rel(root, dir)
			paths = append(paths, filepath.ToSlash(filepath.Join("repro", rel)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*pkgInfo
	for _, path := range paths {
		p, err := l.check(path)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return l.std.ImportFrom(path, dir, mode)
	}
	p, err := l.check(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// check parses and type-checks one module package, once.
func (l *loader) check(path string) (*pkgInfo, error) {
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, "repro")))
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &pkgInfo{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	p.types, err = conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path] = p
	return p, nil
}

// origin is the declared object behind an instantiated one.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// uncalled returns every exported name of an importable
// module package that no other package references: top-level names and
// the methods of exported types. A method also counts as referenced
// when its type implements an interface that has the method and either
// is declared in another package or has the method called somewhere:
// the call reaches it through the interface. Names print as the
// allowlist keys them: "repro/internal/hash.H3", or
// "repro/internal/hash.H3.Unit" for a method.
func uncalled(pkgs []*pkgInfo) []string {
	used := map[types.Object]bool{}
	// ifaceCalls[name] lists the interfaces whose method name some
	// package calls.
	ifaceCalls := map[string][]*types.Interface{}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			obj = origin(obj)
			if obj.Pkg() == nil {
				continue
			}
			if obj.Pkg() != p.types {
				used[obj] = true
			}
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if it, ok := recv.Type().Underlying().(*types.Interface); ok {
						ifaceCalls[fn.Name()] = append(ifaceCalls[fn.Name()], it)
					}
				}
			}
		}
	}
	// Every named interface of every package the module reaches, by
	// method name, for the "declared in another package" rule.
	type namedIface struct {
		iface *types.Interface
		pkg   *types.Package
	}
	ifaces := map[string][]namedIface{}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						m := it.Method(i).Name()
						ifaces[m] = append(ifaces[m], namedIface{it, pkg})
					}
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.types)
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	ifaces["Error"] = append(ifaces["Error"], namedIface{errIface, nil})

	implements := func(t types.Type, it *types.Interface) bool {
		return types.Implements(t, it) || types.Implements(types.NewPointer(t), it)
	}
	methodUsed := func(m *types.Func, named *types.Named) bool {
		if used[m] {
			return true
		}
		if named.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaceCalls[m.Name()] {
			if implements(named, it) {
				return true
			}
		}
		for _, c := range ifaces[m.Name()] {
			if c.pkg != m.Pkg() && implements(named, c.iface) {
				return true
			}
		}
		return false
	}

	var out []string
	for _, p := range pkgs {
		if p.types.Name() == "main" {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			qualified := p.types.Path() + "." + name
			if obj.Exported() && !used[obj] {
				out = append(out, qualified)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, ok := named.Underlying().(*types.Interface); ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !methodUsed(m, named) {
					out = append(out, qualified+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// module is load over the module root, type-checked once and shared by
// every test of the package.
var module = sync.OnceValues(func() ([]*pkgInfo, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	return load(root)
})

func TestExportsHaveCallers(t *testing.T) {
	pkgs, err := module()
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	listed := map[string]bool{}
	for _, name := range uncalled(pkgs) {
		if _, ok := allowed[name]; ok {
			listed[name] = true
			continue
		}
		bad = append(bad, name)
	}
	if len(bad) > 0 {
		t.Errorf("%d exported names have no caller outside their package; unexport or delete them, or allowlist one with its reason:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
	var stale []string
	for name := range allowed {
		if !listed[name] {
			stale = append(stale, name)
		}
	}
	if len(stale) > 0 {
		sort.Strings(stale)
		t.Errorf("allowlist entries that are gone or now have a caller; drop them:\n\t%s", strings.Join(stale, "\n\t"))
	}
}
