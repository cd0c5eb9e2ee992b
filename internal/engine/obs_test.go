package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rel"
)

func obsFixture(t *testing.T) *Engine {
	t.Helper()
	ins := rel.NewInstance()
	for i := 0; i < 50; i++ {
		ins.MustAdd("E", fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%5))
	}
	for i := 0; i < 5; i++ {
		ins.MustAdd("F", fmt.Sprintf("b%d", i))
	}
	return New(ins)
}

// TestRegisterMetrics registers the engine's counters into a registry and
// checks one snapshot carries them under the dotted "engine." names.
func TestRegisterMetrics(t *testing.T) {
	e := obsFixture(t)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("E", lang.Const("a7"), lang.Var("y"))},
	}
	if _, err := e.EvalCQ(q); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)
	snap := reg.Snapshot()
	if snap.Counters["engine.probes"] == 0 {
		t.Fatalf("engine.probes not reported: %v", snap.Counters)
	}
	if snap.Counters["engine.plans_compiled"] == 0 {
		t.Fatalf("engine.plans_compiled not reported: %v", snap.Counters)
	}
	for _, key := range []string{"engine.scans", "engine.indexes_built",
		"engine.plan_cache.hits", "engine.plan_cache.misses"} {
		if _, ok := snap.Counters[key]; !ok {
			t.Fatalf("%s missing from snapshot: %v", key, snap.Counters)
		}
	}
}

// TestEvalCQSpanTrace checks evalCQ's traced path records plan and exec child
// spans (the plan span annotated with the chosen step order) and returns
// the same answer as the untraced path.
func TestEvalCQSpanTrace(t *testing.T) {
	e := obsFixture(t)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x")),
		Body: []lang.Atom{
			lang.NewAtom("E", lang.Var("x"), lang.Var("y")),
			lang.NewAtom("F", lang.Var("y")),
		},
	}
	tr := obs.NewTracer(2)
	root := tr.ForceTrace("query")
	traced, err := e.evalCQ(q, root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := e.evalCQ(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced) != len(plain) || len(traced) == 0 {
		t.Fatalf("traced answer %v != untraced %v", traced, plain)
	}
	ps := root.Find("plan")
	if ps == nil {
		t.Fatalf("no plan span:\n%s", root.Render())
	}
	steps := ps.AttrMap()["steps"]
	if steps == "" {
		t.Fatalf("plan span has no steps annotation:\n%s", root.Render())
	}
	es := root.Find("exec")
	if es == nil {
		t.Fatalf("no exec span:\n%s", root.Render())
	}
	if es.AttrMap()["rows"] == "" {
		t.Fatalf("exec span has no rows annotation:\n%s", root.Render())
	}
}

// TestEvalUCQSpanTrace checks the fan-out path: one eval.cq child per
// disjunct, each holding its own plan/exec spans, the same engine work
// (counters and plan-cache probes) traced or not, and the invalid-UCQ error
// surfaced on the root span.
func TestEvalUCQSpanTrace(t *testing.T) {
	e, untraced := obsFixture(t), obsFixture(t)
	mkCQ := func(c string) lang.CQ {
		return lang.CQ{
			Head: lang.NewAtom("q", lang.Var("y")),
			Body: []lang.Atom{lang.NewAtom("E", lang.Const(c), lang.Var("y"))},
		}
	}
	u := lang.UCQ{Disjuncts: []lang.CQ{mkCQ("a1"), mkCQ("a2"), mkCQ("a3")}}
	tr := obs.NewTracer(2)
	root := tr.ForceTrace("query")
	rows, err := e.EvalUCQSpan(u, root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := untraced.EvalUCQ(u)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, plain) {
		t.Fatalf("traced rows %v != untraced %v", rows, plain)
	}
	counts := func(e *Engine) map[string]uint64 {
		reg := obs.NewRegistry()
		e.RegisterMetrics(reg)
		return reg.Snapshot().Counters
	}
	got, want := counts(e), counts(untraced)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("traced run's engine counters %v != untraced %v", got, want)
	}
	if n := got["engine.plan_cache.hits"] + got["engine.plan_cache.misses"]; n != uint64(len(u.Disjuncts)) {
		t.Fatalf("plan-cache probes = %d, want one per disjunct (%d)", n, len(u.Disjuncts))
	}
	var cqs int
	for _, c := range root.Children() {
		if c.Name() == "eval.cq" {
			cqs++
			if c.Find("plan") == nil {
				t.Fatalf("eval.cq without plan child:\n%s", root.Render())
			}
		}
	}
	if cqs != len(u.Disjuncts) {
		t.Fatalf("got %d eval.cq spans, want %d:\n%s", cqs, len(u.Disjuncts), root.Render())
	}

	// An invalid UCQ (head arity mismatch across disjuncts) errors the
	// same traced or not, and the error lands on the span.
	bad := lang.UCQ{Disjuncts: []lang.CQ{
		mkCQ("a1"),
		{Head: lang.NewAtom("q"), Body: []lang.Atom{lang.NewAtom("F", lang.Var("y"))}},
	}}
	badRoot := tr.ForceTrace("bad")
	_, traceErr := e.EvalUCQSpan(bad, badRoot)
	badRoot.End()
	_, plainErr := e.EvalUCQ(bad)
	if traceErr == nil || plainErr == nil {
		t.Fatalf("invalid UCQ did not error: traced=%v plain=%v", traceErr, plainErr)
	}
	if traceErr.Error() != plainErr.Error() {
		t.Fatalf("traced error %q != untraced %q", traceErr, plainErr)
	}
}
