package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rel"
)

func mustEval(t *testing.T, e *Engine, q lang.CQ) []rel.Tuple {
	t.Helper()
	rows, err := e.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestEvalCQSelectiveProbe(t *testing.T) {
	ins := rel.NewInstance()
	for i := 0; i < 100; i++ {
		ins.MustAdd("E", fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
	}
	e := New(ins)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("E", lang.Const("a7"), lang.Var("y"))},
	}
	rows := mustEval(t, e, q)
	if len(rows) != 1 || rows[0][0] != "b7" {
		t.Fatalf("rows = %v", rows)
	}
	if e.probes.Load() == 0 {
		t.Fatal("selective query should probe an index")
	}
	if n := e.scans.Load(); n != 0 {
		t.Fatalf("selective query should not scan, scanned %d times", n)
	}
}

func TestEvalCQJoinMatchesNaive(t *testing.T) {
	ins := rel.NewInstance()
	ins.MustAdd("E", "a", "b")
	ins.MustAdd("E", "b", "c")
	ins.MustAdd("E", "b", "d")
	ins.MustAdd("E", "x", "x")
	e := New(ins)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x"), lang.Var("z")),
		Body: []lang.Atom{
			lang.NewAtom("E", lang.Var("x"), lang.Var("y")),
			lang.NewAtom("E", lang.Var("y"), lang.Var("z")),
		},
	}
	got := mustEval(t, e, q)
	want, err := rel.EvalCQ(q, ins)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("engine %v vs naive %v", got, want)
	}
}

func TestRepeatedVariableInAtom(t *testing.T) {
	ins := rel.NewInstance()
	ins.MustAdd("E", "a", "b")
	ins.MustAdd("E", "c", "c")
	e := New(ins)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x")),
		Body: []lang.Atom{lang.NewAtom("E", lang.Var("x"), lang.Var("x"))},
	}
	rows := mustEval(t, e, q)
	if len(rows) != 1 || rows[0][0] != "c" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestIncrementalIndexMaintenance(t *testing.T) {
	ins := rel.NewInstance()
	ins.MustAdd("E", "a", "1")
	e := New(ins)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("E", lang.Const("a"), lang.Var("y"))},
	}
	if rows := mustEval(t, e, q); len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	// Insert after the index exists: the next probe must see the new tuple.
	ins.MustAdd("E", "a", "2")
	ins.MustAdd("E", "b", "3")
	rows := mustEval(t, e, q)
	if len(rows) != 2 {
		t.Fatalf("after insert rows = %v", rows)
	}
	if n := e.indexesBuilt.Load(); n != 1 {
		t.Fatalf("expected one index (incrementally maintained), built %d", n)
	}
}

// TestCompositeKeyNoCollision is a regression test: composite index keys
// must not collide for values containing delimiter bytes. Reachable in
// practice: AddFact takes arbitrary strings and the netpeer wire carries
// NUL bytes (JSON \u0000) legally.
func TestCompositeKeyNoCollision(t *testing.T) {
	ins := rel.NewInstance()
	ins.MustAdd("R", "a\x00b", "c", "1")
	ins.MustAdd("R", "a", "b\x00c", "2")
	e := New(ins)
	// Probe cols {0,1} with ("a\x00b","c"): exactly one tuple matches.
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("z")),
		Body: []lang.Atom{lang.NewAtom("R", lang.Const("a\x00b"), lang.Const("c"), lang.Var("z"))},
	}
	got := mustEval(t, e, q)
	want, err := rel.EvalCQ(q, ins)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("engine %v vs naive %v (composite key collision?)", got, want)
	}
	if len(got) != 1 || got[0][0] != "1" {
		t.Fatalf("rows = %v, want [(1)]", got)
	}
}

func TestPlanCacheReuse(t *testing.T) {
	ins := rel.NewInstance()
	ins.MustAdd("E", "a", "b")
	e := New(ins)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("E", lang.Var("x"), lang.Var("y"))},
	}
	mustEval(t, e, q)
	mustEval(t, e, q)
	// Alpha-equivalent query shares the plan.
	q2 := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("v")),
		Body: []lang.Atom{lang.NewAtom("E", lang.Var("u"), lang.Var("v"))},
	}
	mustEval(t, e, q2)
	if n := e.plans.compiles.Load(); n != 1 {
		t.Fatalf("plans compiled = %d, want 1", n)
	}
}

// TestPlanCacheTellsConstantsApart poses two queries whose constants, when
// the plan cache's key wrote them raw, spelled one key: the second must get
// its own plan, and so the answers a fresh engine gives it.
func TestPlanCacheTellsConstantsApart(t *testing.T) {
	ins := rel.NewInstance()
	ins.MustAdd("A.r", "a,=b", "k")
	ins.MustAdd("A.s", "k")
	query := func(r1, r2 lang.Term) lang.CQ {
		return lang.CQ{
			Head: lang.NewAtom("q", lang.Var("y")),
			Body: []lang.Atom{lang.NewAtom("A.r", r1, r2), lang.NewAtom("A.s", lang.Var("y"))},
		}
	}
	first := query(lang.Const("a,=b"), lang.Var("y"))
	second := query(lang.Const("a"), lang.Const("b,?0"))
	want := mustEval(t, New(ins), second)
	e := New(ins)
	if got := mustEval(t, e, first); len(got) != 1 || got[0][0] != "k" {
		t.Fatalf("first query: %v, want [(k)]", got)
	}
	if got := mustEval(t, e, second); !slices.EqualFunc(got, want, rel.Tuple.Equal) {
		t.Fatalf("second query after the first: %v, want %v as on a fresh engine", got, want)
	}
}

func TestUnsafeQueryRejected(t *testing.T) {
	e := New(rel.NewInstance())
	q := lang.CQ{Head: lang.NewAtom("q", lang.Var("x"))}
	if _, err := e.EvalCQ(q); err == nil {
		t.Fatal("unsafe query accepted")
	}
}

func TestComparisons(t *testing.T) {
	ins := rel.NewInstance()
	ins.MustAdd("P", "a", "1")
	ins.MustAdd("P", "b", "5")
	ins.MustAdd("P", "c", "9")
	e := New(ins)
	q := lang.CQ{
		Head:  lang.NewAtom("q", lang.Var("x")),
		Body:  []lang.Atom{lang.NewAtom("P", lang.Var("x"), lang.Var("n"))},
		Comps: []lang.Comparison{{Op: lang.OpGT, L: lang.Var("n"), R: lang.Const("3")}},
	}
	rows := mustEval(t, e, q)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

// enumerate grounds body the way the chase does: it streams the query
// _match(v1, …, vk) :- body, its body's variables in order of first
// occurrence, and gives yield each head tuple as a substitution binding vi
// to its i-th value.
func enumerate(e *Engine, body []lang.Atom, yield func(lang.Subst) error) error {
	var vars []lang.Term
	for _, a := range body {
		vars = a.Vars(vars)
	}
	q := lang.CQ{Head: lang.Atom{Pred: "_match", Args: vars}, Body: body}
	return e.StreamCQ(q, func(t rel.Tuple) error {
		s := lang.NewSubst()
		for i, v := range vars {
			s[v.Name] = lang.Const(t[i])
		}
		return yield(s)
	})
}

func TestEnumerateAndStop(t *testing.T) {
	ins := rel.NewInstance()
	ins.MustAdd("E", "a", "b")
	ins.MustAdd("E", "b", "c")
	e := New(ins)
	body := []lang.Atom{lang.NewAtom("E", lang.Var("x"), lang.Var("y"))}
	n := 0
	err := enumerate(e, body, func(s lang.Subst) error {
		if s.Apply(lang.Var("x")).IsVar() {
			t.Fatal("x unbound in enumerated substitution")
		}
		n++
		return nil
	})
	if err != nil || n != 2 {
		t.Fatalf("n = %d, err = %v", n, err)
	}
	n = 0
	err = enumerate(e, body, func(s lang.Subst) error {
		n++
		return ErrStop
	})
	if err != nil || n != 1 {
		t.Fatalf("ErrStop: n = %d, err = %v", n, err)
	}
}

// StreamCQ must yield exactly EvalCQ's distinct rows (order aside), stop
// early on ErrStop, and propagate yield errors.
func TestStreamCQ(t *testing.T) {
	ins := rel.NewInstance()
	ins.MustAdd("E", "a", "b")
	ins.MustAdd("E", "b", "c")
	ins.MustAdd("E", "c", "c")
	e := New(ins)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("E", lang.Var("x"), lang.Var("y"))},
	}
	want := mustEval(t, e, q) // [b c]
	seen := map[string]bool{}
	if err := e.StreamCQ(q, func(tu rel.Tuple) error {
		if seen[tu.Key()] {
			t.Fatalf("duplicate streamed row %v", tu)
		}
		seen[tu.Key()] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(want) {
		t.Fatalf("streamed %d rows, want %d", len(seen), len(want))
	}
	for _, tu := range want {
		if !seen[tu.Key()] {
			t.Fatalf("row %v missing from stream", tu)
		}
	}
	n := 0
	if err := e.StreamCQ(q, func(rel.Tuple) error { n++; return ErrStop }); err != nil || n != 1 {
		t.Fatalf("ErrStop: n = %d, err = %v", n, err)
	}
	boom := fmt.Errorf("boom")
	if err := e.StreamCQ(q, func(rel.Tuple) error { return boom }); err != boom {
		t.Fatalf("yield error not propagated: %v", err)
	}
}

// ProbeByKeyBatchYield streams the same distinct tuples ProbeByKeyBatch
// materializes and honors ErrStop. The yielded tuple is a view valid
// during the call, so the test copies what it keeps.
func TestProbeByKeyBatchYield(t *testing.T) {
	ins := rel.NewInstance()
	ins.MustAdd("R", "k1", "a")
	ins.MustAdd("R", "k1", "b")
	ins.MustAdd("R", "k2", "c")
	ins.MustAdd("R", "k9", "z")
	e := New(ins)
	keys := [][]string{{"k1"}, {"k2"}, {"k1"}}
	want, err := e.ProbeByKeyBatch("R", []int{0}, keys)
	if err != nil || len(want) != 3 {
		t.Fatalf("materialized: %v (%v)", want, err)
	}
	var got []rel.Tuple
	if err := e.ProbeByKeyBatchYield("R", []int{0}, keys, func(tu rel.Tuple) error {
		got = append(got, slices.Clone(tu))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("yield variant diverges: %v vs %v", got, want)
	}
	n := 0
	if err := e.ProbeByKeyBatchYield("R", []int{0}, keys, func(rel.Tuple) error {
		n++
		return ErrStop
	}); err != nil || n != 1 {
		t.Fatalf("ErrStop: n = %d, err = %v", n, err)
	}
}

// TestEnumerateAlphaEquivalentBodies is a regression test: two bodies that
// are identical up to variable renaming must each get substitutions under
// their OWN variable names, not the first-compiled plan's (the plan cache
// must not alias them).
func TestEnumerateAlphaEquivalentBodies(t *testing.T) {
	ins := rel.NewInstance()
	ins.MustAdd("E", "a", "b")
	e := New(ins)
	if err := enumerate(e, []lang.Atom{lang.NewAtom("E", lang.Var("x"), lang.Var("y"))},
		func(s lang.Subst) error { return nil }); err != nil {
		t.Fatal(err)
	}
	n := 0
	err := enumerate(e, []lang.Atom{lang.NewAtom("E", lang.Var("u"), lang.Var("v"))},
		func(s lang.Subst) error {
			n++
			if got := s.Apply(lang.Var("u")); got != lang.Const("a") {
				t.Fatalf("u bound to %v, want \"a\" (cached plan's variable names leaked)", got)
			}
			if got := s.Apply(lang.Var("v")); got != lang.Const("b") {
				t.Fatalf("v bound to %v, want \"b\"", got)
			}
			return nil
		})
	if err != nil || n != 1 {
		t.Fatalf("n = %d, err = %v", n, err)
	}
}

func TestExistsMatch(t *testing.T) {
	ins := rel.NewInstance()
	ins.MustAdd("E", "a", "b")
	e := New(ins)
	ok, err := e.ExistsMatch([]lang.Atom{lang.NewAtom("E", lang.Const("a"), lang.Var("w"))})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	ok, err = e.ExistsMatch([]lang.Atom{lang.NewAtom("E", lang.Const("z"), lang.Var("w"))})
	if err != nil || ok {
		t.Fatalf("ok=%v err=%v, want no match", ok, err)
	}
}

func TestEvalUCQ(t *testing.T) {
	ins := rel.NewInstance()
	ins.MustAdd("A", "1")
	ins.MustAdd("B", "2")
	e := New(ins)
	u := lang.UCQ{Disjuncts: []lang.CQ{
		{Head: lang.NewAtom("q", lang.Var("x")), Body: []lang.Atom{lang.NewAtom("A", lang.Var("x"))}},
		{Head: lang.NewAtom("q", lang.Var("x")), Body: []lang.Atom{lang.NewAtom("B", lang.Var("x"))}},
	}}
	rows, err := e.EvalUCQ(u)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rel.EvalUCQ(u, ins)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("engine %v vs naive %v", rows, want)
	}
}

// TestEvalUCQFailsFast: one failed disjunct fails the union, so disjuncts not
// yet claimed when it failed are never evaluated, and the error returned is
// the lowest-position one. The disjuncts after 0 share one plan, so what
// counts them is their probes, one each. On the caller's goroutine
// (EvalUCQ) nothing after disjunct 0 is evaluated; at the executor's width
// (EvalUnion at MaxUnionFanout, over the engine's EvalCQSpan) at most one
// claim per other goroutine is.
func TestEvalUCQFailsFast(t *testing.T) {
	ins := rel.NewInstance()
	ins.MustAdd("E", "a", "b")
	e := New(ins)
	bad := lang.CQ{ // E has arity 2
		Head: lang.NewAtom("q", lang.Var("x")),
		Body: []lang.Atom{lang.NewAtom("E", lang.Var("x"))},
	}
	u := lang.UCQ{Disjuncts: []lang.CQ{bad}}
	for i := 0; i < 40; i++ {
		u.Disjuncts = append(u.Disjuncts, lang.CQ{
			Head: lang.NewAtom("q", lang.Var("x")),
			Body: []lang.Atom{lang.NewAtom("E", lang.Var("x"), lang.Const(fmt.Sprintf("c%d", i)))},
		})
	}
	_, wantErr := e.EvalCQ(bad)
	if wantErr == nil {
		t.Fatal("arity-mismatched disjunct accepted")
	}

	// Serial: disjunct 0 is claimed and fails before any other is claimed.
	before := e.probes.Load()
	if _, err := e.EvalUCQ(u); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("EvalUCQ error = %v, want disjunct 0's: %v", err, wantErr)
	}
	if n := e.probes.Load() - before; n != 0 {
		t.Fatalf("EvalUCQ evaluated %d disjuncts after disjunct 0 failed, want 0", n)
	}

	// Concurrent, in the worst schedule made deterministic: every claim
	// after disjunct 0 waits until disjunct 0's failure has stopped new
	// claims, as if the goroutine evaluating disjunct 0 were descheduled
	// while the others claimed on.
	failedCh := make(chan struct{})
	testHookClaimed = func(i int) {
		if i > 0 {
			<-failedCh
		}
	}
	testHookFailed = func() { close(failedCh) }
	before = e.probes.Load()
	_, err := EvalUnion(u, nil, MaxUnionFanout, e.EvalCQSpan)
	testHookClaimed, testHookFailed = nil, nil
	if err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("EvalUnion error = %v, want disjunct 0's: %v", err, wantErr)
	}
	// At most one in-flight claim per other goroutine, with slack for
	// claims that raced the failure flag.
	if n := e.probes.Load() - before; n > MaxUnionFanout+4 {
		t.Fatalf("evaluated %d disjuncts after disjunct 0 failed, want <= %d", n, MaxUnionFanout+4)
	}
	// Traced, the failing disjunct's own eval.cq span carries its error,
	// not just the plan span under it; disjunct 0 is the only one that can
	// fail.
	root := obs.NewTracer(1).ForceTrace("query")
	if _, err := e.EvalUCQSpan(u, root); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("traced EvalUCQSpan error = %v, want disjunct 0's: %v", err, wantErr)
	}
	root.End()
	var failedSpans []string
	for _, c := range root.Children() {
		if msg, ok := c.AttrMap()["error"]; ok && c.Name() == "eval.cq" {
			failedSpans = append(failedSpans, msg)
		}
	}
	if len(failedSpans) != 1 || failedSpans[0] != wantErr.Error() {
		t.Fatalf("eval.cq spans with an error = %q, want disjunct 0's alone:\n%s", failedSpans, root.Render())
	}
}

// durableUnions builds local_durable's two union shapes over one engine:
// three hospitals' H<k>.doc(id, location) and two fire districts'
// FD<k>.medic(id, location), each with 5 rows at each of locs locations.
// sel is a doctor selection at one location, 3 one-atom disjuncts; join
// pairs its doctors and medics, 6 disjuncts of two atoms. Both are
// evaluated once, so their plans and indexes are warm.
func durableUnions(tb testing.TB, locs int) (e *Engine, sel, join lang.UCQ) {
	tb.Helper()
	ins := rel.NewInstance()
	for j := range 5 * locs {
		l := fmt.Sprintf("loc%d", j%locs)
		for k := range 3 {
			ins.MustAdd(fmt.Sprintf("H%d.doc", k), fmt.Sprintf("d%d_%d", k, j), l)
		}
		for k := range 2 {
			ins.MustAdd(fmt.Sprintf("FD%d.medic", k), fmt.Sprintf("m%d_%d", k, j), l)
		}
	}
	l := lang.Const(fmt.Sprintf("loc%d", locs/2))
	for h := range 3 {
		doc := lang.NewAtom(fmt.Sprintf("H%d.doc", h), lang.Var("d"), l)
		sel.Add(lang.CQ{Head: lang.NewAtom("q", lang.Var("d")), Body: []lang.Atom{doc}})
		for f := range 2 {
			join.Add(lang.CQ{
				Head: lang.NewAtom("q", lang.Var("d"), lang.Var("m")),
				Body: []lang.Atom{doc, lang.NewAtom(fmt.Sprintf("FD%d.medic", f), lang.Var("m"), l)},
			})
		}
	}
	e = New(ins)
	// 15 doctors at the location, and 10 medics for each of them.
	for _, c := range []struct {
		u    lang.UCQ
		want int
	}{{sel, 15}, {join, 150}} {
		if rows, err := e.EvalUCQ(c.u); err != nil || len(rows) != c.want {
			tb.Fatalf("degenerate fixture: %d rows (%v), want %d, for\n%s", len(rows), err, c.want, c.u)
		}
	}
	return e, sel, join
}

// TestEvalUCQRunsOnCaller: the engine's union starts no goroutine. Every
// claim of a 6-disjunct union runs while the goroutine count is what it was
// before the union, and the claims arrive in position order. Run on up to
// MaxUnionFanout goroutines instead, some claim would see a helper alive:
// helpers start before the caller's first claim, and one that claimed
// nothing exits only after every disjunct has been claimed.
func TestEvalUCQRunsOnCaller(t *testing.T) {
	e, _, join := durableUnions(t, 50)
	var claims []int
	base := runtime.NumGoroutine()
	testHookClaimed = func(i int) {
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("disjunct %d claimed with %d goroutines, %d before the union", i, n, base)
		}
		claims = append(claims, i)
	}
	_, err := e.EvalUCQ(join)
	testHookClaimed = nil
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(claims, want) {
		t.Fatalf("claims %v, want %v", claims, want)
	}
}

func TestProbeByKeyBatch(t *testing.T) {
	ins := rel.NewInstance()
	ins.MustAdd("R", "a", "1")
	ins.MustAdd("R", "a", "2")
	ins.MustAdd("R", "b", "3")
	ins.MustAdd("R", "c", "4")
	e := New(ins)

	// Single-column batch: duplicate keys must not duplicate tuples.
	got, err := e.ProbeByKeyBatch("R", []int{0}, [][]string{{"a"}, {"c"}, {"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}

	// Multi-column batch uses the length-prefixed composite encoding.
	got, err = e.ProbeByKeyBatch("R", []int{0, 1}, [][]string{{"a", "2"}, {"b", "3"}, {"b", "999"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}

	// The batch index catches up with later inserts like any probe index.
	ins.MustAdd("R", "a", "5")
	got, err = e.ProbeByKeyBatch("R", []int{0}, [][]string{{"a"}})
	if err != nil || len(got) != 3 {
		t.Fatalf("after insert: %v (%v)", got, err)
	}

	// Absent relation: empty, no error (mirrors probe steps).
	if got, err := e.ProbeByKeyBatch("absent", []int{0}, [][]string{{"a"}}); err != nil || len(got) != 0 {
		t.Fatalf("absent: %v (%v)", got, err)
	}
	// Errors: no columns, column out of range, key arity mismatch.
	if _, err := e.ProbeByKeyBatch("R", nil, nil); err == nil {
		t.Fatal("no-column batch accepted")
	}
	if _, err := e.ProbeByKeyBatch("R", []int{7}, [][]string{{"a"}}); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if _, err := e.ProbeByKeyBatch("R", []int{0}, [][]string{{"a", "b"}}); err == nil {
		t.Fatal("mis-sized key accepted")
	}
}

// Composite batch keys must not collide for values containing the bytes
// of a length prefix, decimal or uvarint (the same guarantee the plans'
// multi-column probe keys give): each key finds exactly its own row.
func TestProbeByKeyBatchNoCollision(t *testing.T) {
	rows := [][]string{
		{"1:a", "b"}, {"a", "1:b"},
		{"\x01a", "b"}, {"a", "\x01b"}, {"\x01a\x01b", ""}, {"", "\x01a\x01b"},
		{"\x03", "\x00"}, {"\x00", "\x03"}, {"\x03\x00", ""}, {"", "\x00\x03"},
	}
	ins := rel.NewInstance()
	for _, row := range rows {
		ins.MustAdd("S", row...)
	}
	e := New(ins)
	for _, row := range rows {
		got, err := e.ProbeByKeyBatch("S", []int{0, 1}, [][]string{row})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !got[0].Equal(row) {
			t.Fatalf("probe %q: got %q", row, got)
		}
	}
}
