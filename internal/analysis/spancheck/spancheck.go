// Package spancheck enforces the two API contracts of the observability
// layer:
//
//  1. Nil-receiver safety. A type whose doc comment promises "safe on a
//     nil receiver" (obs.Span, obs.Tracer — sampling off means nil spans
//     flow everywhere) must honor it in every pointer-receiver method: a
//     method that touches receiver state must first bail out on a nil
//     receiver — exported methods only; unexported helpers are the
//     guarded methods' private territory. The checker flags receiver
//     field accesses and dereferences not preceded by an
//     `if recv == nil { return ... }` guard; methods that only delegate
//     (no direct field access) need no guard.
//
//  2. Stable metric names. The first argument of RegisterCounter,
//     RegisterGauge and RegisterHistogram on obs.Registry — a metric's full
//     dotted name, at its one registration site — must be a compile-time
//     string constant matching the lowercase-dotted contract
//     ^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$. Dashboards and alerts key on
//     these names; a runtime-built or mixed-case name silently forks the
//     time series.
package spancheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the spancheck entry point.
var Analyzer = &analysis.Analyzer{
	Name: "spancheck",
	Doc:  "nil-receiver-safe obs types must guard their methods; metric names are literal and lowercase-dotted",
	Run:  run,
}

// nilSafeRe marks a type doc as promising nil-receiver safety.
var nilSafeRe = regexp.MustCompile(`(?i)nil receiver`)

// metricNameRe is the lowercase-dotted naming contract.
var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$`)

// metricMethods are the obs.Registry methods whose first argument is a
// metric name.
var metricMethods = map[string]bool{"RegisterCounter": true, "RegisterGauge": true, "RegisterHistogram": true}

func run(pass *analysis.Pass) error {
	checkNilGuards(pass)
	checkMetricNames(pass)
	return nil
}

// checkNilGuards applies rule 1 to the current package's own types.
func checkNilGuards(pass *analysis.Pass) {
	nilSafe := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				doc := ""
				if ts.Doc != nil {
					doc = ts.Doc.Text()
				} else if len(gd.Specs) == 1 && gd.Doc != nil {
					doc = gd.Doc.Text()
				}
				if nilSafeRe.MatchString(doc) {
					if obj := pass.TypesInfo.Defs[ts.Name]; obj != nil {
						nilSafe[obj] = true
					}
				}
			}
		}
	}
	if len(nilSafe) == 0 {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
				continue
			}
			if !fd.Name.IsExported() {
				continue // the contract covers the public API surface
			}
			recv := pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
			if recv == nil {
				continue
			}
			ptr, ok := recv.Type().(*types.Pointer)
			if !ok {
				continue
			}
			named, ok := ptr.Elem().(*types.Named)
			if !ok || !nilSafe[named.Obj()] {
				continue
			}
			checkMethodGuard(pass, fd, recv)
		}
	}
}

// checkMethodGuard flags the first unguarded receiver-state access in fd.
func checkMethodGuard(pass *analysis.Pass, fd *ast.FuncDecl, recv types.Object) {
	var firstAccess ast.Node
	guardPos := token.Pos(-1)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			id, ok := n.X.(*ast.Ident)
			if !ok || pass.TypesInfo.Uses[id] != recv {
				return true
			}
			if s := pass.TypesInfo.Selections[n]; s != nil && s.Kind() == types.FieldVal {
				if firstAccess == nil || n.Pos() < firstAccess.Pos() {
					firstAccess = n
				}
			}
		case *ast.StarExpr:
			if id, ok := n.X.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == recv {
				if firstAccess == nil || n.Pos() < firstAccess.Pos() {
					firstAccess = n
				}
			}
		case *ast.IfStmt:
			if guardPos < 0 && condChecksNil(pass, n.Cond, recv) && containsReturn(n.Body) {
				guardPos = n.Pos()
			}
		}
		return true
	})
	if firstAccess == nil {
		return // delegating method: nothing to guard
	}
	if guardPos < 0 || guardPos > firstAccess.Pos() {
		pass.Reportf(firstAccess.Pos(),
			"method %s.%s touches receiver state without a nil-receiver guard, but %s promises \"safe on a nil receiver\"",
			recvTypeName(recv), fd.Name.Name, recvTypeName(recv))
	}
}

// recvTypeName names the receiver's element type.
func recvTypeName(recv types.Object) string {
	if ptr, ok := recv.Type().(*types.Pointer); ok {
		if named, ok := ptr.Elem().(*types.Named); ok {
			return named.Obj().Name()
		}
	}
	return recv.Type().String()
}

// condChecksNil reports whether cond contains `recv == nil` (possibly
// ||-combined with other tests).
func condChecksNil(pass *analysis.Pass, cond ast.Expr, recv types.Object) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op != token.EQL {
			return true
		}
		for _, pair := range [2][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
			id, ok := ast.Unparen(pair[0]).(*ast.Ident)
			if !ok || pass.TypesInfo.Uses[id] != recv {
				continue
			}
			if nid, ok := ast.Unparen(pair[1]).(*ast.Ident); ok && nid.Name == "nil" {
				found = true
			}
		}
		return !found
	})
	return found
}

// containsReturn reports whether the block returns (at any depth).
func containsReturn(b *ast.BlockStmt) bool {
	found := false
	ast.Inspect(b, func(n ast.Node) bool {
		if _, ok := n.(*ast.ReturnStmt); ok {
			found = true
		}
		return !found
	})
	return found
}

// checkMetricNames applies rule 2 at every call site in the package.
func checkMetricNames(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			method, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !metricMethods[method.Sel.Name] || !isObsRegistry(pass, method.X) {
				return true
			}
			arg := call.Args[0]
			tv, ok := pass.TypesInfo.Types[arg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(arg.Pos(),
					"metric name passed to Registry.%s must be a compile-time string constant (dashboards key on stable names)",
					method.Sel.Name)
				return true
			}
			name := constant.StringVal(tv.Value)
			if !metricNameRe.MatchString(name) {
				pass.Reportf(arg.Pos(),
					"metric name %q violates the lowercase-dotted naming contract %s", name, metricNameRe)
			}
			return true
		})
	}
}

// isObsRegistry reports whether e's type is (a pointer to) the Registry
// type declared in a package named obs.
func isObsRegistry(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	} else if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Name() != "Registry" {
		return false
	}
	pkg := obj.Pkg().Path()
	return pkg == "obs" || strings.HasSuffix(pkg, "/obs")
}
