//go:build !race

package surface

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreadAllowed is every struct field kept although no non-test code
// reads it, keyed as TestFieldsHaveReaders prints it, with the reason:
//
//	query answer    a query's result that only tests and callers of the
//	                query's Result inspect; the engine hands it on unread
//	public record   a field of a record a Sink receives, for sinks to read
//	bench           written by bench/, whose own reader is a later item
//	test oracle     the reference other packages' tests compare against
var unreadAllowed = map[string]string{
	"repro/internal/core.Feedback.Predicted":       "bench: bench/shadow.go writes the shadow prediction the governor will read (ROADMAP item 6)",
	"repro/internal/linalg.matrix.Rows":            "test oracle: the row count the solver tests build and check matrices by",
	"repro/internal/queries.autofocusResult.Total": "query answer: the interval's byte total the clusters are a share of",
	"repro/internal/queries.p2pResult.Count":       "query answer: the number of P2P flows detected",
	"repro/internal/queries.patternResult.Matches": "query answer: the packets that matched the pattern",
	"repro/internal/queries.traceResult.Bytes":     "query answer: the bytes the trace query stored",
	"repro/pkg/loadshed.IntervalResults.Index":     "public record: the interval a sink's results belong to",
}

// fieldReads calls read for every field selector of one package's files
// that reads the field. A write is the selector as the whole
// left side of = or :=, or the operand of ++ or --; every other
// selector use (a compound assignment, &x.f, x.f[i] = v, x.f.g = v)
// reads it. A composite-literal key is an identifier, not a selector,
// so it never counts. A comparison reads every field of the values it
// compares, and so does a map's hashing of its keys.
func fieldReads(p *pkgInfo, read func(*types.Var)) {
	var whole func(t types.Type)
	whole = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				read(origin(u.Field(i)).(*types.Var))
				whole(u.Field(i).Type())
			}
		case *types.Array:
			whole(u.Elem())
		}
	}
	for _, tv := range p.info.Types {
		if m, ok := tv.Type.(*types.Map); ok {
			whole(m.Key())
		}
	}
	for _, f := range p.files {
		written := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							written[sel] = true
						}
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					whole(p.info.TypeOf(n.X))
				}
			case *ast.IncDecStmt:
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					written[sel] = true
				}
			case *ast.SelectorExpr:
				s := p.info.Selections[n]
				if s == nil || s.Kind() != types.FieldVal || written[n] {
					return true
				}
				read(origin(s.Obj()).(*types.Var))
			}
			return true
		})
	}
}

// unread returns every non-embedded field of a struct type declared in
// the module's non-test files, bench/'s own types aside, that no
// non-test code of the module or bench/ reads and that carries no json
// tag (encoding/json reads those). Names print as
// "repro/internal/control.DemandReport.Demand"; a field of an anonymous
// struct prints under the nearest named type or function around it.
func unread(pkgs []*pkgInfo) []string {
	reads := map[*types.Var]bool{}
	for _, p := range pkgs {
		fieldReads(p, func(v *types.Var) { reads[v] = true })
	}
	var out []string
	for _, p := range pkgs {
		if p.types.Path() == "repro/bench" || strings.HasPrefix(p.types.Path(), "repro/bench/") {
			continue
		}
		// fields appends the unread fields of every struct type under n,
		// naming them after owner or after a type declared inside it.
		var fields func(owner string, n ast.Node)
		fields = func(owner string, n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if n.Name.Name != owner {
						fields(n.Name.Name, n)
						return false
					}
				case *ast.StructType:
					for _, fld := range n.Fields.List {
						if fld.Tag != nil {
							tag, _ := strconv.Unquote(fld.Tag.Value)
							if _, ok := reflect.StructTag(tag).Lookup("json"); ok {
								continue
							}
						}
						for _, name := range fld.Names {
							if !reads[p.info.Defs[name].(*types.Var)] {
								out = append(out, p.types.Path()+"."+owner+"."+name.Name)
							}
						}
					}
				}
				return true
			})
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fields(d.Name.Name, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							fields(s.Name.Name, s)
						case *ast.ValueSpec:
							fields(s.Names[0].Name, s)
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

func TestFieldsHaveReaders(t *testing.T) {
	pkgs, err := module()
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	listed := map[string]bool{}
	for _, name := range unread(pkgs) {
		if _, ok := unreadAllowed[name]; ok {
			listed[name] = true
			continue
		}
		bad = append(bad, name)
	}
	if len(bad) > 0 {
		t.Errorf("%d struct fields have no reader in non-test code; delete each with the code that only fills it, or allowlist one with its reason:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
	var stale []string
	for name := range unreadAllowed {
		if !listed[name] {
			stale = append(stale, name)
		}
	}
	if len(stale) > 0 {
		sort.Strings(stale)
		t.Errorf("allowlist entries that are gone or now have a reader; drop them:\n\t%s", strings.Join(stale, "\n\t"))
	}
}
