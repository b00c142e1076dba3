//go:build !race

package surface

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// layering is the module's layering, as rules on what each package's
// non-test files import directly. Each rule names its package, why the
// line is drawn there, and which import paths cross it.
var layering = []struct {
	pkg    string
	why    string
	denied func(path string) bool
}{
	{
		"repro/pkg/loadshed",
		"the engine is a deterministic per-bin loop: sockets, files and keys belong to the control plane and cmd/",
		func(path string) bool {
			return under(path, "net") || under(path, "os") || under(path, "crypto")
		},
	},
	{
		"repro/internal/control",
		"the control plane sees the engine only through its transport, checkpoints as opaque blobs; of this module it uses the allocators and the jitter RNG",
		func(path string) bool {
			return under(path, "repro") && path != "repro/internal/sched" && path != "repro/internal/hash"
		},
	},
	{
		"repro/internal/queries",
		"a query is a black box that sees packets and is charged cycles (§2.1.3); it knows nothing of the shedder",
		shedder,
	},
	{
		"repro/internal/custom",
		"custom shedding wraps queries and is policed by the engine; it knows nothing of the shedder's own parts",
		shedder,
	},
}

// under reports whether path is the package root or below it.
func under(path, root string) bool { return path == root || strings.HasPrefix(path, root+"/") }

// shedder reports whether path is a part of the load shedder, which the
// queries below it must not see.
func shedder(path string) bool {
	return slices.Contains([]string{
		"repro/internal/core", "repro/internal/sched", "repro/internal/predict",
		"repro/pkg/loadshed", "repro/internal/control",
	}, path)
}

// TestLayering lists every direct import of a non-test file that
// crosses a layering rule, and every rule whose package is missing.
func TestLayering(t *testing.T) {
	pkgs, err := module()
	if err != nil {
		t.Fatal(err)
	}
	imports := map[string][]string{}
	for _, p := range pkgs {
		path := p.types.Path()
		imports[path] = []string{}
		for _, imp := range p.types.Imports() {
			imports[path] = append(imports[path], imp.Path())
		}
	}
	var bad []string
	for _, rule := range layering {
		imps, ok := imports[rule.pkg]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: no such package (%s)", rule.pkg, rule.why))
			continue
		}
		for _, imp := range imps {
			if rule.denied(imp) {
				bad = append(bad, fmt.Sprintf("%s imports %s (%s)", rule.pkg, imp, rule.why))
			}
		}
	}
	if len(bad) > 0 {
		slices.Sort(bad)
		t.Errorf("%d breaks of the layering:\n\t%s", len(bad), strings.Join(bad, "\n\t"))
	}
}
