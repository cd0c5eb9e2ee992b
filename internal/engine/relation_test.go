package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/lang"
	"repro/internal/rel"
)

// buildRandom inserts one random data set over diffPreds into a fresh
// instance.
func buildRandom(rng *rand.Rand, domain int) *rel.Instance {
	ins := rel.NewInstance()
	for _, p := range diffPreds {
		n := rng.Intn(60)
		for i := 0; i < n; i++ {
			t := make(rel.Tuple, p.arity)
			for j := range t {
				t[j] = fmt.Sprintf("c%d", rng.Intn(domain))
			}
			ins.MustAdd(p.name, t...)
		}
	}
	return ins
}

// TestDifferentialCQAfterInserts: over the randomized CQ corpus, the engine must
// agree exactly with the naive oracle — including after inserts between
// queries, which its indexes absorb by consuming the insert log.
func TestDifferentialCQAfterInserts(t *testing.T) {
	for seed := 0; seed < 120; seed++ {
		rng := rand.New(rand.NewSource(int64(9000 + seed)))
		domain := 3 + rng.Intn(5)
		ins := buildRandom(rng, domain)
		e := New(ins)
		for k := 0; k < 3; k++ {
			q := randCQ(rng, domain)
			want, errWant := rel.EvalCQ(q, ins)
			got, errGot := e.EvalCQ(q)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("seed %d: error mismatch on %s: naive %v, engine %v", seed, q, errWant, errGot)
			}
			if errWant != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: answer mismatch on %s:\nnaive  %v\nengine %v", seed, q, want, got)
			}
			// Mutate the instance; the indexes must catch up.
			p := diffPreds[rng.Intn(len(diffPreds))]
			tup := make(rel.Tuple, p.arity)
			for j := range tup {
				tup[j] = fmt.Sprintf("c%d", rng.Intn(domain))
			}
			ins.MustAdd(p.name, tup...)
		}
	}
}

// TestDifferentialUCQLargerInstances: same for unions, driving the disjunct worker
// pool.
func TestDifferentialUCQLargerInstances(t *testing.T) {
	for seed := 0; seed < 60; seed++ {
		rng := rand.New(rand.NewSource(int64(12000 + seed)))
		domain := 3 + rng.Intn(5)
		ins := buildRandom(rng, domain)
		e := New(ins)
		first := randCQ(rng, domain)
		u := lang.UCQ{Disjuncts: []lang.CQ{first}}
		for len(u.Disjuncts) < 1+rng.Intn(6) {
			d := randCQ(rng, domain)
			if d.Head.Arity() == first.Head.Arity() {
				d.Head.Pred = first.Head.Pred
				u.Disjuncts = append(u.Disjuncts, d)
			}
		}
		want, errWant := rel.EvalUCQ(u, ins)
		got, errGot := e.EvalUCQ(u)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("seed %d: error mismatch: naive %v, engine %v", seed, errWant, errGot)
		}
		if errWant == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: mismatch on\n%s\nnaive  %v\nengine %v", seed, u, want, got)
		}
	}
}

// TestStreamDedupSetSkipped pins when StreamCQ may drop its dedup set: a
// head that binds every body variable turns distinct body matches into
// distinct head tuples, so the engine keeps no set; a head that drops a
// variable must still deduplicate. Each query runs against the naive
// evaluator; EvalCQ sorts the stream without deduplicating it again, so a
// tuple enumerated twice would show up as a repeated answer.
func TestStreamDedupSetSkipped(t *testing.T) {
	v, c := lang.Var, lang.Const
	r := func(a, b lang.Term) lang.Atom { return lang.NewAtom("R", a, b) }
	for _, tc := range []struct {
		name      string
		head      []lang.Term
		body      []lang.Atom
		bindsAll  bool
		scanFirst bool // the plan opens with a full scan
	}{
		{"self-join", []lang.Term{v("x"), v("y"), v("z")}, []lang.Atom{r(v("x"), v("y")), r(v("y"), v("z"))}, true, true},
		{"repeated variable", []lang.Term{v("x")}, []lang.Atom{r(v("x"), v("x"))}, true, true},
		{"constant in head", []lang.Term{v("x"), c("tag"), v("y")}, []lang.Atom{r(v("x"), v("y"))}, true, true},
		{"constant in body", []lang.Term{v("y"), v("x")}, []lang.Atom{r(c("n1"), v("x")), r(v("x"), v("y"))}, true, false},
		{"projection", []lang.Term{v("y")}, []lang.Atom{r(v("x"), v("y"))}, false, true},
		{"join projection", []lang.Term{v("x"), v("z")}, []lang.Atom{r(v("x"), v("y")), r(v("y"), v("z"))}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			ins := rel.NewInstance()
			for i := 0; i < 400; i++ {
				a, b := fmt.Sprintf("n%d", rng.Intn(40)), fmt.Sprintf("n%d", rng.Intn(40))
				if i%10 == 0 {
					b = a
				}
				ins.MustAdd("R", a, b)
			}
			q := lang.CQ{Head: lang.Atom{Pred: "q", Args: tc.head}, Body: tc.body}
			want, err := rel.EvalCQ(q, ins)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) < 2 {
				t.Fatalf("fixture too small: %d answers", len(want))
			}
			e := New(ins)
			p, _, err := e.plan(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if p.headBindsAll != tc.bindsAll {
				t.Fatalf("headBindsAll = %v, want %v", p.headBindsAll, tc.bindsAll)
			}
			got, err := e.EvalCQ(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d answers, naive %d:\nengine %v\nnaive  %v", len(got), len(want), got, want)
			}
			if ran := e.scans.Load() > 0; ran != tc.scanFirst {
				t.Fatalf("scan ran = %v", ran)
			}
		})
	}
}

// TestScanCountersAndEquivalence: a join opening with a full scan
// of a 3000-row relation counts one engine.scans entry per evaluation and
// returns exactly the naive answer.
func TestScanCountersAndEquivalence(t *testing.T) {
	ins := rel.NewInstance()
	for i := 0; i < 3000; i++ {
		k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i%97)
		ins.MustAdd("R", k, v)
		if i%97 == 0 {
			ins.MustAdd("S", v, fmt.Sprintf("w%d", i))
		}
	}
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x"), lang.Var("w")),
		Body: []lang.Atom{
			lang.NewAtom("R", lang.Var("x"), lang.Var("y")),
			lang.NewAtom("S", lang.Var("y"), lang.Var("w")),
		},
	}
	naive, err := rel.EvalCQ(q, ins)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ins)
	got, err := e.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive) == 0 || !reflect.DeepEqual(got, naive) {
		t.Fatalf("join diverges: engine %d, naive %d rows", len(got), len(naive))
	}
	if n := e.scans.Load(); n != 1 {
		t.Fatalf("engine.scans = %d, want 1 (one opening scan per evaluation)", n)
	}
}

// TestScanEarlyStop: ErrStop from a streaming yield ends a scan
// cleanly, after exactly the yields made, and a yield error propagates.
func TestScanEarlyStop(t *testing.T) {
	ins := rel.NewInstance()
	for i := 0; i < 2000; i++ {
		ins.MustAdd("R", fmt.Sprintf("k%d", i), "v")
	}
	e := New(ins)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x")),
		Body: []lang.Atom{lang.NewAtom("R", lang.Var("x"), lang.Var("y"))},
	}
	n := 0
	if err := e.StreamCQ(q, func(rel.Tuple) error {
		n++
		if n >= 5 {
			return ErrStop
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("yields after ErrStop: %d, want 5", n)
	}
	// A yield error (not ErrStop) must surface.
	boom := fmt.Errorf("boom")
	if err := e.StreamCQ(q, func(rel.Tuple) error { return boom }); err != boom {
		t.Fatalf("yield error not propagated through the scan: %v", err)
	}
}

// TestLargeProbeBatch: a large bound-key batch yields exactly the
// distinct set of a naive filter, whether the key column is the first or
// not; ErrStop ends the batch without error and a yield error propagates.
func TestLargeProbeBatch(t *testing.T) {
	ins := rel.NewInstance()
	for i := 0; i < 4000; i++ {
		ins.MustAdd("R", fmt.Sprintf("k%d", i%500), fmt.Sprintf("v%d", i), fmt.Sprintf("k%d", i%450))
	}
	keys := make([][]string, 0, 600)
	asked := map[string]bool{}
	for i := 0; i < 600; i++ {
		keys = append(keys, []string{fmt.Sprintf("k%d", i)}) // 100+ misses
		asked[keys[i][0]] = true
	}
	e := New(ins)
	for _, col := range []int{0, 2} {
		var naive []rel.Tuple
		for _, tu := range ins.Relation("R").Tuples() {
			if asked[tu[col]] {
				naive = append(naive, tu)
			}
		}
		got, err := e.ProbeByKeyBatch("R", []int{col}, keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(naive) || !reflect.DeepEqual(rel.DistinctSorted(got), naive) {
			t.Fatalf("column %d: probe set diverges: %d vs %d naive tuples", col, len(got), len(naive))
		}
	}
	n := 0
	if err := e.ProbeByKeyBatchYield("R", []int{0}, keys, func(rel.Tuple) error {
		n++
		return ErrStop
	}); err != nil || n != 1 {
		t.Fatalf("ErrStop through the batch: n=%d err=%v", n, err)
	}
	boom := fmt.Errorf("boom")
	if err := e.ProbeByKeyBatchYield("R", []int{0}, keys, func(rel.Tuple) error { return boom }); err != boom {
		t.Fatalf("yield error not propagated through the batch: %v", err)
	}
}

// TestSkewedScanAndProbe: a relation whose rows all share one
// first-column value — one 1000-row index bucket — answers scans and
// probes exactly as the naive evaluator does.
func TestSkewedScanAndProbe(t *testing.T) {
	ins := rel.NewInstance()
	for i := 0; i < 1000; i++ {
		ins.MustAdd("R", "hot", fmt.Sprintf("v%d", i))
	}
	e := New(ins)
	for _, q := range []lang.CQ{{
		Head: lang.NewAtom("q", lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("R", lang.Var("x"), lang.Var("y"))},
	}, {
		Head: lang.NewAtom("q", lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("R", lang.Const("hot"), lang.Var("y"))},
	}} {
		naive, err := rel.EvalCQ(q, ins)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.EvalCQ(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(naive) != 1000 || !reflect.DeepEqual(got, naive) {
			t.Fatalf("skewed %s diverges: engine %d, naive %d rows", q, len(got), len(naive))
		}
	}
	if probes, scans := e.probes.Load(), e.scans.Load(); probes != 1 || scans != 1 {
		t.Fatalf("probes %d, scans %d; want one of each", probes, scans)
	}
	probed, err := e.ProbeByKeyBatch("R", []int{0}, [][]string{{"hot"}, {"cold"}})
	if err != nil || len(probed) != 1000 {
		t.Fatalf("skewed probe: %d tuples (%v)", len(probed), err)
	}
}

// TestStreamScan: yields exactly the relation's tuples in walk order —
// insertion order until an index lays the relation out; then that index's
// groups in the order their keys first appear, each in insertion order,
// followed by the rows inserted since — honors ErrStop, and treats absent
// relations as empty. The yielded tuple is a view valid during the call,
// so the test copies what it keeps.
func TestStreamScan(t *testing.T) {
	ins := rel.NewInstance()
	var want []rel.Tuple
	for i := 0; i < 100; i++ {
		tu := rel.Tuple{fmt.Sprintf("k%d", (i*37)%100), fmt.Sprintf("v%d", i%7)}
		ins.MustAdd("R", tu...)
		want = append(want, tu)
	}
	e := New(ins)
	scan := func() []rel.Tuple {
		var got []rel.Tuple
		if err := e.StreamScan("R", func(t rel.Tuple) error {
			got = append(got, slices.Clone(t))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := scan(); !slices.EqualFunc(got, want, rel.Tuple.Equal) {
		t.Fatalf("StreamScan yielded %v, want insertion order %v", got, want)
	}

	// A probe of column 1 lays the relation out by it: v0's rows, then
	// v1's, and so on, since row i holds v(i mod 7).
	if _, err := e.ProbeByKeyBatch("R", []int{1}, [][]string{{"v3"}}); err != nil {
		t.Fatal(err)
	}
	var laid []rel.Tuple
	for g := range 7 {
		for i := g; i < len(want); i += 7 {
			laid = append(laid, want[i])
		}
	}
	for i := 100; i < 105; i++ {
		tu := rel.Tuple{fmt.Sprintf("k%d", i), "v0"}
		ins.MustAdd("R", tu...)
		laid = append(laid, tu)
	}
	if got := scan(); !slices.EqualFunc(got, laid, rel.Tuple.Equal) {
		t.Fatalf("StreamScan after the layout yielded %v, want %v", got, laid)
	}

	n := 0
	if err := e.StreamScan("R", func(rel.Tuple) error { n++; return ErrStop }); err != nil || n != 1 {
		t.Fatalf("ErrStop: n=%d err=%v", n, err)
	}
	if err := e.StreamScan("absent", func(rel.Tuple) error { t.Fatal("yield on absent"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestScanConcurrentInsert runs scans over a relation while a
// writer inserts into it concurrently, both under the relation's one mutex
// (run with -race): every answer must respect the monotone envelope
// eval(inserted-before-start) ⊆ answer ⊆ eval(inserted-by-end) — relations
// are append-only, so a scan can never lose a pre-existing tuple or invent
// one.
func TestScanConcurrentInsert(t *testing.T) {
	ins := rel.NewInstance()
	base := map[string]bool{}
	for i := 0; i < 500; i++ {
		tu := rel.Tuple{fmt.Sprintf("base%d", i), "v"}
		ins.MustAdd("R", tu...)
		base[tu.Key()] = true
	}
	e := New(ins)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x"), lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("R", lang.Var("x"), lang.Var("y"))},
	}
	r := ins.Relation("R")

	// The writer records a tuple in the ledger before inserting it and
	// counts it in returned once Insert returns: a tuple whose Insert has
	// published it but not yet returned is inserted by the end of a scan
	// that sees it, but not before the start of one that does not.
	var mu sync.Mutex
	var ledger []rel.Tuple // writer's inserts, in the order they began
	returned := 0          // how many of them have returned
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			tu := rel.Tuple{fmt.Sprintf("live%d", i), "v"}
			mu.Lock()
			ledger = append(ledger, tu)
			mu.Unlock()
			if _, err := r.Insert(tu); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			returned++
			mu.Unlock()
		}
	}()

	for iter := 0; iter < 40; iter++ {
		mu.Lock()
		n0 := returned
		mu.Unlock()
		rows, err := e.EvalCQ(q)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		n1 := len(ledger)
		upper := map[string]bool{}
		for k := range base {
			upper[k] = true
		}
		for _, tu := range ledger[:n1] {
			upper[tu.Key()] = true
		}
		lower := map[string]bool{}
		for k := range base {
			lower[k] = true
		}
		for _, tu := range ledger[:n0] {
			lower[tu.Key()] = true
		}
		mu.Unlock()
		got := map[string]bool{}
		for _, tu := range rows {
			if !upper[tu.Key()] {
				t.Fatalf("iter %d: phantom answer %v", iter, tu)
			}
			got[tu.Key()] = true
		}
		for k := range lower {
			if !got[k] {
				t.Fatalf("iter %d: lost tuple %q inserted before the scan started", iter, k)
			}
		}
	}
	<-done
	// Quiesced: exact equality.
	rows, err := e.EvalCQ(q)
	if err != nil || len(rows) != 900 {
		t.Fatalf("quiesced rows = %d (%v), want 900", len(rows), err)
	}
}

// TestOrderBodyCardinalityOnly: the smallest relation leads, each bound
// position discounts an atom by 1/8, and atoms whose cost ties keep body
// order.
func TestOrderBodyCardinalityOnly(t *testing.T) {
	body := []lang.Atom{
		lang.NewAtom("A", lang.Var("x"), lang.Var("y")),
		lang.NewAtom("Fat", lang.Var("y"), lang.Var("z")),
		lang.NewAtom("Lean", lang.Var("y"), lang.Var("w")),
	}
	order := orderBody(body, []int{10, 50000, 50000})
	if !slices.Equal(order, []int{0, 1, 2}) {
		t.Fatalf("order = %v, want [0 1 2] (A first, then Fat and Lean tied in body order)", order)
	}
	// A constant's 1/8 discount outweighs a relation 4x smaller.
	sel := []lang.Atom{
		lang.NewAtom("Small", lang.Var("x"), lang.Var("y")),
		lang.NewAtom("Big", lang.Const("c"), lang.Var("x")),
	}
	if got := orderBody(sel, []int{100, 400}); !slices.Equal(got, []int{1, 0}) {
		t.Fatalf("order = %v, want [1 0] (the selection leads)", got)
	}
}
