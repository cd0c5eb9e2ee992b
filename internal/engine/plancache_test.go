package engine

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rel"
)

// TestCachedPlanRetiresOnDrift: a plan ordered while B held 1 row scans B
// and probes A once per B row. Once B has grown to 20,000 rows, the plan
// cache's lookup finds B's size drifted and compiles again, so from the
// first query after the growth on, a query makes no more index lookups than
// a fresh engine's, which scans A and probes B once per A row. B grows
// while queries run, so lookups replace the plan under concurrent runs and
// inserts.
func TestCachedPlanRetiresOnDrift(t *testing.T) {
	const as, bs = 1000, 20000
	ins := rel.NewInstance()
	for i := range as {
		ins.MustAdd("A", fmt.Sprintf("k%d", i))
	}
	ins.MustAdd("B", "k0", "v0")
	e := New(ins)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x"), lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("A", lang.Var("x")), lang.NewAtom("B", lang.Var("x"), lang.Var("y"))},
	}
	if rows := mustEval(t, e, q); len(rows) != 1 {
		t.Fatalf("%d answers before the growth, want 1", len(rows))
	}
	if got := e.plans.lru.Entries.Load(); got != 1 {
		t.Fatalf("%d cached plans, want 1", got)
	}

	// Every B row joins one A row, so an answer has as many rows as B had
	// at some point of its run.
	b := ins.Relation("B")
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				lo := b.Len()
				rows, err := e.EvalCQ(q)
				if hi := b.Len(); err != nil || len(rows) < lo || len(rows) > hi {
					t.Errorf("%d answers (%v) while B grew from %d to %d rows", len(rows), err, lo, hi)
					return
				}
			}
		}()
	}
	for i := 1; i < bs; i++ {
		ins.MustAdd("B", fmt.Sprintf("k%d", i%as), fmt.Sprintf("v%d", i))
	}
	close(done)
	wg.Wait()

	// A fresh engine's first probe of B lays B out by x, after which even a
	// scan of B repeats each A key in a row; its clone is laid out alone.
	fresh := New(ins.Clone())
	before := fresh.probes.Load()
	want := mustEval(t, fresh, q)
	freshProbes := fresh.probes.Load() - before
	if len(want) != bs || freshProbes > as {
		t.Fatalf("fresh engine: %d answers in %d probes, want %d answers in at most %d", len(want), freshProbes, bs, as)
	}
	for n := 1; n <= 3; n++ {
		before := e.probes.Load()
		got := mustEval(t, e, q)
		probes := e.probes.Load() - before
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d after the growth: %d answers, fresh engine %d", n, len(got), len(want))
		}
		if probes > freshProbes {
			t.Fatalf("query %d after the growth made %d probes, a fresh engine %d: the plan ordered by B's first size was kept", n, probes, freshProbes)
		}
	}
}

// TestAlphaEquivalentStreamsShareAPlan: two bodies equal up to variable
// renaming, each posed through StreamCQ with its body's variables as its
// head in order of first occurrence (the chase poses TGD bodies so), share
// one cached plan. Each caller gets its own query's answer, and ErrStop
// still ends a stream without error.
func TestAlphaEquivalentStreamsShareAPlan(t *testing.T) {
	ins := rel.NewInstance()
	ins.MustAdd("E", "a", "b")
	ins.MustAdd("E", "b", "c")
	ins.MustAdd("E", "c", "a")
	ins.MustAdd("F", "b", "1")
	ins.MustAdd("F", "c", "2")
	e := New(ins)
	// The second body names its variables in reverse alphabetical order.
	bodies := [][]lang.Atom{
		{lang.NewAtom("E", lang.Var("x"), lang.Var("y")), lang.NewAtom("F", lang.Var("y"), lang.Var("z"))},
		{lang.NewAtom("E", lang.Var("w"), lang.Var("v")), lang.NewAtom("F", lang.Var("v"), lang.Var("u"))},
	}
	for _, body := range bodies {
		var vars []lang.Term
		for _, a := range body {
			vars = a.Vars(vars)
		}
		q := lang.CQ{Head: lang.Atom{Pred: "_match", Args: vars}, Body: body}
		want, err := rel.EvalCQ(q, ins)
		if err != nil {
			t.Fatal(err)
		}
		var got []rel.Tuple
		if err := e.StreamCQ(q, func(tu rel.Tuple) error {
			got = append(got, slices.Clone(tu))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		rel.SortTuples(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s streamed %v, want %v", q, got, want)
		}
		n := 0
		if err := e.StreamCQ(q, func(rel.Tuple) error { n++; return ErrStop }); err != nil || n != 1 {
			t.Fatalf("ErrStop: n = %d, err = %v", n, err)
		}
	}
	if n := e.plans.compiles.Load(); n != 1 {
		t.Fatalf("engine.plans_compiled = %d, want 1: alpha-equivalent bodies did not share a plan", n)
	}
}

// TestUnboundComparisonNamesItsOwnVariable: a comparison on a variable the
// body never binds fails a query that has a match, and the error names the
// query's own variable, not that of an alpha-equivalent query posed before.
func TestUnboundComparisonNamesItsOwnVariable(t *testing.T) {
	ins := rel.NewInstance()
	ins.MustAdd("E", "a")
	e := New(ins)
	for _, v := range []string{"x", "u"} {
		q := lang.CQ{
			Head:  lang.NewAtom("q", lang.Var(v)),
			Body:  []lang.Atom{lang.NewAtom("E", lang.Var(v))},
			Comps: []lang.Comparison{{Op: lang.OpNE, L: lang.Var(v + "1"), R: lang.Const("c")}},
		}
		if _, err := e.EvalCQ(q); err == nil || !strings.Contains(err.Error(), v+"1 != ") {
			t.Fatalf("%s: error %v, want one naming %s1", q, err, v)
		}
	}
}

// compiled reads engine.plans_compiled off reg.
func compiled(reg *obs.Registry) uint64 { return reg.Snapshot().Counters["engine.plans_compiled"] }

// TestPlanSharedAcrossConstants: q(y) :- E("a", y) and q(y) :- E("b", y)
// differ only in an atom constant, so they share one plan, and each answers
// as on a fresh engine. Then, while E grows under concurrent inserts, two
// goroutines pose the two queries over the shared plans: each answer holds
// only its own constant's rows, as many as E held of them at some point of
// the run, so no run reads another's parameter. Quiesced, each answers as
// on a fresh engine again.
func TestPlanSharedAcrossConstants(t *testing.T) {
	ins := rel.NewInstance()
	for i := range 10 {
		ins.MustAdd("E", "a", fmt.Sprintf("a%d", i))
		ins.MustAdd("E", "b", fmt.Sprintf("b%d", i))
	}
	e := New(ins)
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)
	query := func(c string) lang.CQ {
		return lang.CQ{
			Head: lang.NewAtom("q", lang.Var("y")),
			Body: []lang.Atom{lang.NewAtom("E", lang.Const(c), lang.Var("y"))},
		}
	}
	asFresh := func(when string) {
		t.Helper()
		for _, c := range []string{"a", "b"} {
			want := mustEval(t, New(ins.Clone()), query(c))
			if got := mustEval(t, e, query(c)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s answers %v, a fresh engine %v", when, query(c), got, want)
			}
		}
	}
	asFresh("before the inserts")
	if n := compiled(reg); n != 1 {
		t.Fatalf("engine.plans_compiled = %d, want 1: the two constants did not share a plan", n)
	}

	// E holds from added[k] to started[k] rows of constant k: the inserter
	// counts a row in started before it adds it, and in added after.
	var started, added [2]atomic.Int64
	for k := range 2 {
		started[k].Store(10)
		added[k].Store(10)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				k := (g + i) % 2
				c := "ab"[k : k+1]
				lo := added[k].Load()
				rows, err := e.EvalCQ(query(c))
				hi := started[k].Load()
				if err != nil || int64(len(rows)) < lo || int64(len(rows)) > hi {
					t.Errorf("%s: %d answers (%v) while %s's rows grew from %d to %d", query(c), len(rows), err, c, lo, hi)
					return
				}
				for _, r := range rows {
					if !strings.HasPrefix(r[0], c) {
						t.Errorf("%s answers %v, a row of another constant", query(c), r)
						return
					}
				}
			}
		}()
	}
	for i := 10; i < 3000; i++ {
		for k, c := range []string{"a", "b"} {
			started[k].Add(1)
			ins.MustAdd("E", c, fmt.Sprintf("%s%d", c, i))
			added[k].Add(1)
		}
	}
	close(done)
	wg.Wait()
	asFresh("after the inserts")
}

// TestExistsMatchCompilesOnce: the chase's head-satisfaction test poses one
// body with per-match constants, and those are the plan's parameters, so
// ten matches compile one plan and each gets its own answer.
func TestExistsMatchCompilesOnce(t *testing.T) {
	ins := rel.NewInstance()
	for i := range 5 {
		ins.MustAdd("E", fmt.Sprintf("c%d", i), "x")
	}
	e := New(ins)
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)
	for i := range 10 {
		ok, err := e.ExistsMatch([]lang.Atom{lang.NewAtom("E", lang.Const(fmt.Sprintf("c%d", i)), lang.Var("w"))})
		if err != nil || ok != (i < 5) {
			t.Fatalf("ExistsMatch(E(c%d, w)) = %v, %v; want %v", i, ok, err, i < 5)
		}
	}
	if n := compiled(reg); n != 1 {
		t.Fatalf("engine.plans_compiled = %d after ten matches of one body, want 1", n)
	}
}
