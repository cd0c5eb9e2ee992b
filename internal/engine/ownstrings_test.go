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
	p, ok := e.plans.Get(q.Canonical())
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
	check("head predicate", p.headPred)
	for _, name := range p.slotNames {
		check("slot name", name)
	}
	for _, h := range p.head {
		check("head constant", h.constVal)
	}
	for _, st := range p.steps {
		check("step predicate", st.pred)
		for _, k := range st.keyParts {
			check("key constant", k.constVal)
		}
		for _, c := range st.comps {
			check("comparison constant", c.l.constVal)
			check("comparison constant", c.r.constVal)
		}
	}
}
