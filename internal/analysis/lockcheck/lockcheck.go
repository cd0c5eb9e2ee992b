// Package lockcheck enforces the repo's documented lock discipline: a
// struct field whose doc or line comment says "guarded by <mu>" — where
// <mu> names a sibling sync.Mutex or sync.RWMutex field — may only be
// accessed in functions that acquired that mutex first.
//
// The check is intraprocedural and position-based: within one top-level
// function (closures included), an access `x.f` to a guarded field is a
// violation unless a call `x.mu.Lock()` or `x.mu.RLock()` on the same
// mutex field, spelled with the syntactically identical base expression
// `x`, appears earlier in the source. Functions whose name ends in
// "Locked" are exempt — that suffix is the repo's existing convention for
// "caller holds the lock" (see pdms.reformulateLocked). Fresh, not yet
// published values should be built with composite literals (which the
// checker does not treat as field accesses) rather than field-at-a-time
// writes.
//
// Freeform guard prose whose captured word does not name a sibling mutex
// field ("guarded by the shard's own mutex") is ignored, so existing
// comments keep their meaning; the machine-checked form is the exact
// field name: "guarded by mu".
package lockcheck

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the lockcheck entry point.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "fields documented as \"guarded by <mu>\" must only be accessed with that mutex held",
	Run:  run,
}

// guardRe captures the guard field name from a comment.
var guardRe = regexp.MustCompile(`(?i:guarded by) ([A-Za-z_][A-Za-z0-9_]*)`)

func run(pass *analysis.Pass) error {
	// guarded maps each annotated field object to its guarding mutex
	// field object.
	guarded := map[types.Object]types.Object{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			collectGuards(pass, st, guarded)
			return true
		})
	}
	if len(guarded) == 0 {
		return nil
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue // repo convention: the caller holds the lock
			}
			checkFunc(pass, fd, guarded)
		}
	}
	return nil
}

// collectGuards records the guarded fields of one struct type.
func collectGuards(pass *analysis.Pass, st *ast.StructType, guarded map[types.Object]types.Object) {
	// First index the struct's mutex fields by name.
	mutexes := map[string]types.Object{}
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj != nil && isMutex(obj.Type()) {
				mutexes[name.Name] = obj
			}
		}
	}
	if len(mutexes) == 0 {
		return
	}
	for _, field := range st.Fields.List {
		text := ""
		if field.Doc != nil {
			text += field.Doc.Text()
		}
		if field.Comment != nil {
			text += " " + field.Comment.Text()
		}
		var mu types.Object
		for _, m := range guardRe.FindAllStringSubmatch(text, -1) {
			if obj, ok := mutexes[m[1]]; ok {
				mu = obj
				break
			}
		}
		if mu == nil {
			continue
		}
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil && obj != mu {
				guarded[obj] = mu
			}
		}
	}
}

// isMutex reports whether t is sync.Mutex, sync.RWMutex, or a pointer to
// one.
func isMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// acquisition is one x.mu.Lock()/RLock() call site.
type acquisition struct {
	mu   types.Object // the mutex field object
	base string       // the spelling of x
	pos  int          // source offset ordering within the function
}

// checkFunc flags guarded-field accesses not preceded by a matching
// acquisition in fd.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, guarded map[types.Object]types.Object) {
	var acquired []acquisition
	type access struct {
		sel  *ast.SelectorExpr
		mu   types.Object
		base string
		pos  int
	}
	var accesses []access

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			method, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || (method.Sel.Name != "Lock" && method.Sel.Name != "RLock") {
				return true
			}
			muSel, ok := method.X.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[muSel.Sel]
			if obj == nil || !isMutex(obj.Type()) {
				return true
			}
			acquired = append(acquired, acquisition{
				mu:   obj,
				base: types.ExprString(muSel.X),
				pos:  int(n.Pos()),
			})
		case *ast.SelectorExpr:
			sel := pass.TypesInfo.Selections[n]
			if sel == nil || sel.Kind() != types.FieldVal {
				return true
			}
			mu, ok := guarded[sel.Obj()]
			if !ok {
				return true
			}
			accesses = append(accesses, access{
				sel:  n,
				mu:   mu,
				base: types.ExprString(n.X),
				pos:  int(n.Pos()),
			})
		}
		return true
	})

	for _, acc := range accesses {
		held := false
		for _, acq := range acquired {
			if acq.mu == acc.mu && acq.base == acc.base && acq.pos < acc.pos {
				held = true
				break
			}
		}
		if !held {
			pass.Reportf(acc.sel.Sel.Pos(),
				"%s.%s is guarded by %s but accessed without a preceding %s.%s.Lock/RLock in %s (suffix the function name with Locked if its callers hold the lock)",
				acc.base, acc.sel.Sel.Name, acc.mu.Name(), acc.base, acc.mu.Name(), fd.Name.Name)
		}
	}
}
