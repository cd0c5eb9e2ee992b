package engine

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/lang"
	"repro/internal/rel"
)

// TestCachedPlanOwnsItsStrings checks that a cached plan keeps none of its
// query's strings: a query decoded from a request frame holds substrings of
// the whole frame, and a plan in the cache must not pin it.
func TestCachedPlanOwnsItsStrings(t *testing.T) {
	frame := `"q" "y" "A.r" "c1" "z" "c9"` + strings.Repeat(" ", 1<<10)
	at := func(s string) string {
		i := strings.Index(frame, `"`+s+`"`)
		return frame[i+1 : i+1+len(s)]
	}
	ins := rel.NewInstance()
	ins.MustAdd("A.r", "c1", "v", "c9")
	e := New(ins)
	q := lang.CQ{
		Head:  lang.NewAtom(at("q"), lang.Var(at("y")), lang.Const(at("c9"))),
		Body:  []lang.Atom{lang.NewAtom(at("A.r"), lang.Const(at("c1")), lang.Var(at("y")), lang.Var(at("z")))},
		Comps: []lang.Comparison{{Op: lang.OpNE, L: lang.Var(at("z")), R: lang.Const(at("c1"))}},
	}
	if rows := mustEval(t, e, q); len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	p, ok := e.plans.lru.Get(string(q.AppendCanonical(nil, true)))
	if !ok {
		t.Fatal("plan not cached")
	}
	base := uintptr(unsafe.Pointer(unsafe.StringData(frame)))
	check := func(what, s string) {
		if s == "" {
			return
		}
		if d := uintptr(unsafe.Pointer(unsafe.StringData(s))); d >= base && d < base+uintptr(len(frame)) {
			t.Fatalf("plan's %s %q is a substring of the query's frame", what, s)
		}
	}
	for _, st := range p.steps {
		check("step predicate", st.pred)
	}
	if len(p.lits) != 1 {
		t.Fatalf("plan literals %q, want the comparison's constant alone", p.lits)
	}
	for _, l := range p.lits {
		check("comparison constant", l)
	}
}
