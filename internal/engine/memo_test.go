package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/lang"
	"repro/internal/rel"
)

// crossProduct is a 2-atom cross product whose atoms are both keyed by the
// constant "k": A has 5 rows at "k" (and 5 elsewhere), B 3 at "k" (and 17
// elsewhere), so the planner probes A first and B once per outer row.
func crossProduct() (*rel.Instance, lang.CQ) {
	ins := rel.NewInstance()
	key := func(i, atK int) string {
		if i < atK {
			return "k"
		}
		return "elsewhere"
	}
	for i := range 10 {
		ins.MustAdd("A", fmt.Sprintf("a%d", i), key(i, 5))
	}
	for i := range 20 {
		ins.MustAdd("B", fmt.Sprintf("b%d", i), key(i, 3))
	}
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x"), lang.Var("y")),
		Body: []lang.Atom{
			lang.NewAtom("A", lang.Var("x"), lang.Const("k")),
			lang.NewAtom("B", lang.Var("y"), lang.Const("k")),
		},
	}
	return ins, q
}

// TestCrossProductProbesOncePerRun: the inner atom's key is a constant, so
// each run looks each index up once, 2 lookups where probing per outer row
// would make 1 + 5, and a second run looks both up again.
func TestCrossProductProbesOncePerRun(t *testing.T) {
	ins, q := crossProduct()
	e := New(ins)
	want, err := rel.EvalCQ(q, ins)
	if err != nil || len(want) != 15 {
		t.Fatalf("reference: %d rows (%v), want 15", len(want), err)
	}
	for run := range 2 {
		before := e.probes.Load()
		got := mustEval(t, e, q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: engine %v vs naive %v", run, got, want)
		}
		if n := e.probes.Load() - before; n != 2 {
			t.Fatalf("run %d: %d index lookups, want 2", run, n)
		}
	}
}

// TestProbeMemoEndsWithTheRun: a run remembers nothing of the last one. A
// row inserted into the inner relation between two runs of the same query
// is in the second answer.
func TestProbeMemoEndsWithTheRun(t *testing.T) {
	ins, q := crossProduct()
	e := New(ins)
	if got := mustEval(t, e, q); len(got) != 15 {
		t.Fatalf("first run: %d rows, want 15", len(got))
	}
	ins.MustAdd("B", "bnew", "k")
	got := mustEval(t, e, q)
	want, err := rel.EvalCQ(q, ins)
	if err != nil || len(want) != 20 {
		t.Fatalf("reference: %d rows (%v), want 20", len(want), err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("second run: engine %v vs naive %v", got, want)
	}
}

// TestProbeMemoComparesKeys: the outer scan's join keys come as a, b, a,
// so the inner step must look up every key that differs from its last
// one, not reuse its first lookup.
func TestProbeMemoComparesKeys(t *testing.T) {
	ins := rel.NewInstance()
	for _, r := range [][2]string{{"r1", "a"}, {"r2", "b"}, {"r3", "a"}} {
		ins.MustAdd("R", r[0], r[1])
	}
	for _, s := range [][2]string{{"a", "s1"}, {"a", "s2"}, {"b", "s3"}, {"c", "s4"}, {"c", "s5"}} {
		ins.MustAdd("S", s[0], s[1])
	}
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x"), lang.Var("y")),
		Body: []lang.Atom{
			lang.NewAtom("R", lang.Var("x"), lang.Var("k")),
			lang.NewAtom("S", lang.Var("k"), lang.Var("y")),
		},
	}
	e := New(ins)
	got := mustEval(t, e, q)
	want, err := rel.EvalCQ(q, ins)
	if err != nil || len(want) != 5 {
		t.Fatalf("reference: %d rows (%v), want 5", len(want), err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("engine %v vs naive %v", got, want)
	}
	if s := e.scans.Load(); s != 1 {
		t.Fatalf("%d scans, want R scanned once, in insertion order", s)
	}
}

// TestProbeMemoUnderConcurrentInserts runs the cross product while a
// writer inserts into the inner relation, every 20th row at the inner
// atom's key (run with -race), so each run's one lookup of the inner index
// folds in rows first. A run reuses that lookup for every outer row, and
// every answer must still lie between the answer before the inserts and
// the answer after them, which a copy of the instance with every insert
// done gives beforehand.
func TestProbeMemoUnderConcurrentInserts(t *testing.T) {
	const inserts = 4000
	live := make([]rel.Tuple, inserts)
	for i := range live {
		live[i] = rel.Tuple{fmt.Sprintf("live%d", i), "elsewhere"}
		if i%20 == 0 {
			live[i][1] = "k"
		}
	}
	ins, q := crossProduct()
	e := New(ins)
	before := mustEval(t, e, q)
	final := ins.Clone()
	for _, tu := range live {
		final.MustAdd("B", tu...)
	}
	after, err := rel.EvalCQ(q, final)
	if want := 5 * (3 + inserts/20); err != nil || len(after) != want {
		t.Fatalf("reference: %d rows (%v), want %d", len(after), err, want)
	}
	b := ins.Relation("B")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, tu := range live {
			if _, err := b.Insert(tu); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	check := func(i int) {
		got := mustEval(t, e, q)
		if !isSubset(before, got) || !isSubset(got, after) {
			t.Fatalf("answer %d (%d rows) is not between the %d rows before the inserts and the %d after", i, len(got), len(before), len(after))
		}
	}
	for i := 0; ; i++ {
		select {
		case <-done:
			if got := mustEval(t, e, q); !reflect.DeepEqual(got, after) {
				t.Fatalf("quiesced: %d rows, want %d", len(got), len(after))
			}
			return
		default:
			check(i)
		}
	}
}

// TestEngineUnionAllocs pins the allocations of BenchmarkEngineUnion's warm
// unions on the caller's goroutine. The race detector makes sync.Pool drop
// items at random, so the counts hold only without it.
func TestEngineUnionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool reuse is randomised under -race")
	}
	e, sel, join := durableUnions(t, 2000)
	for _, c := range []struct {
		name string
		u    lang.UCQ
		max  float64
	}{{"selection", sel, 18}, {"join", join, 39}} {
		var err error
		n := testing.AllocsPerRun(100, func() {
			if _, uerr := e.EvalUCQ(c.u); uerr != nil {
				err = uerr
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if n > c.max {
			t.Errorf("%s: %.0f allocs per union, want at most %.0f", c.name, n, c.max)
		}
	}
}
