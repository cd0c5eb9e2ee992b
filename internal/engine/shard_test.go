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

// buildShardPair inserts one random data set into two instances that differ
// only in shard count.
func buildShardPair(rng *rand.Rand, domain, shards int) (*rel.Instance, *rel.Instance) {
	one := rel.NewInstanceSharded(1)
	many := rel.NewInstanceSharded(shards)
	for _, p := range diffPreds {
		n := rng.Intn(60)
		for i := 0; i < n; i++ {
			t := make(rel.Tuple, p.arity)
			for j := range t {
				t[j] = fmt.Sprintf("c%d", rng.Intn(domain))
			}
			one.MustAdd(p.name, t...)
			many.MustAdd(p.name, t...)
		}
	}
	return one, many
}

// TestDifferentialShardedCQ: over the randomized CQ corpus, a sharded
// engine must agree exactly with the unsharded engine and the naive
// oracle — including after mid-test mutations of both instances.
func TestDifferentialShardedCQ(t *testing.T) {
	for seed := 0; seed < 120; seed++ {
		rng := rand.New(rand.NewSource(int64(9000 + seed)))
		domain := 3 + rng.Intn(5)
		one, many := buildShardPair(rng, domain, 2+rng.Intn(7))
		e1, eN := New(one), New(many)
		for k := 0; k < 3; k++ {
			q := randCQ(rng, domain)
			want, errWant := rel.EvalCQ(q, one)
			got1, err1 := e1.EvalCQ(q)
			gotN, errN := eN.EvalCQ(q)
			if (errWant == nil) != (err1 == nil) || (errWant == nil) != (errN == nil) {
				t.Fatalf("seed %d: error mismatch on %s: naive %v, unsharded %v, sharded %v",
					seed, q, errWant, err1, errN)
			}
			if errWant != nil {
				continue
			}
			if !reflect.DeepEqual(gotN, want) || !reflect.DeepEqual(got1, want) {
				t.Fatalf("seed %d: answer mismatch on %s:\nnaive     %v\nunsharded %v\nsharded   %v",
					seed, q, want, got1, gotN)
			}
			// Mutate both instances identically; indexes must catch up per
			// shard.
			p := diffPreds[rng.Intn(len(diffPreds))]
			tup := make(rel.Tuple, p.arity)
			for j := range tup {
				tup[j] = fmt.Sprintf("c%d", rng.Intn(domain))
			}
			one.MustAdd(p.name, tup...)
			many.MustAdd(p.name, tup...)
		}
	}
}

// TestDifferentialShardedUCQ: same for unions, driving the disjunct worker
// pool over sharded instances.
func TestDifferentialShardedUCQ(t *testing.T) {
	for seed := 0; seed < 60; seed++ {
		rng := rand.New(rand.NewSource(int64(12000 + seed)))
		domain := 3 + rng.Intn(5)
		one, many := buildShardPair(rng, domain, 2+rng.Intn(7))
		eN := New(many)
		first := randCQ(rng, domain)
		u := lang.UCQ{Disjuncts: []lang.CQ{first}}
		for len(u.Disjuncts) < 1+rng.Intn(6) {
			d := randCQ(rng, domain)
			if d.Head.Arity() == first.Head.Arity() {
				d.Head.Pred = first.Head.Pred
				u.Disjuncts = append(u.Disjuncts, d)
			}
		}
		want, errWant := rel.EvalUCQ(u, one)
		got, errGot := eN.EvalUCQ(u)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("seed %d: error mismatch: naive %v, sharded %v", seed, errWant, errGot)
		}
		if errWant == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: mismatch on\n%s\nnaive   %v\nsharded %v", seed, u, want, got)
		}
	}
}

// TestStreamDedupSetSkipped pins when StreamCQ may drop its dedup set: a
// head that binds every body variable turns distinct body matches into
// distinct head tuples, so the engine keeps no set; a head that drops a
// variable must still deduplicate. Each query runs on a sharded and on the
// unsharded layout, against the naive evaluator; EvalCQ sorts the stream
// without deduplicating it again, so a tuple enumerated twice would show
// up as a repeated answer.
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
			one, many := rel.NewInstanceSharded(1), rel.NewInstanceSharded(8)
			for i := 0; i < 400; i++ {
				a, b := fmt.Sprintf("n%d", rng.Intn(40)), fmt.Sprintf("n%d", rng.Intn(40))
				if i%10 == 0 {
					b = a
				}
				one.MustAdd("R", a, b)
				many.MustAdd("R", a, b)
			}
			q := lang.CQ{Head: lang.Atom{Pred: "q", Args: tc.head}, Body: tc.body}
			want, err := rel.EvalCQ(q, one)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) < 2 {
				t.Fatalf("fixture too small: %d answers", len(want))
			}
			for _, ins := range []*rel.Instance{one, many} {
				e := New(ins)
				p, err := e.plan(q.Canonical(), q)
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
					t.Fatalf("%d shards: %d answers, naive %d:\nengine %v\nnaive  %v",
						ins.Relation("R").NumShards(), len(got), len(want), got, want)
				}
				if ran := e.scans.Load() > 0; ran != tc.scanFirst {
					t.Fatalf("%d shards: scan ran = %v", ins.Relation("R").NumShards(), ran)
				}
			}
		})
	}
}

// TestParallelScanCountersAndEquivalence: a join opening with a full scan
// over an 8-shard relation walks the shards sequentially, counts one
// engine.scans entry per evaluation, and returns exactly the unsharded and
// the naive answer.
func TestParallelScanCountersAndEquivalence(t *testing.T) {
	one := rel.NewInstanceSharded(1)
	many := rel.NewInstanceSharded(8)
	for i := 0; i < 3000; i++ {
		k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i%97)
		one.MustAdd("R", k, v)
		many.MustAdd("R", k, v)
		if i%97 == 0 {
			one.MustAdd("S", v, fmt.Sprintf("w%d", i))
			many.MustAdd("S", v, fmt.Sprintf("w%d", i))
		}
	}
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x"), lang.Var("w")),
		Body: []lang.Atom{
			lang.NewAtom("R", lang.Var("x"), lang.Var("y")),
			lang.NewAtom("S", lang.Var("y"), lang.Var("w")),
		},
	}
	naive, err := rel.EvalCQ(q, one)
	if err != nil {
		t.Fatal(err)
	}
	e1, eN := New(one), New(many)
	want, err := e1.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eN.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive) == 0 || !reflect.DeepEqual(want, naive) || !reflect.DeepEqual(got, naive) {
		t.Fatalf("sharded join diverges: sharded %d, unsharded %d, naive %d rows", len(got), len(want), len(naive))
	}
	for _, e := range []*Engine{e1, eN} {
		if n := e.scans.Load(); n != 1 {
			t.Fatalf("engine.scans = %d, want 1 (one opening scan per evaluation)", n)
		}
	}
}

// TestParallelScanEarlyStop: ErrStop from a streaming yield ends a scan
// over an 8-shard relation cleanly, after exactly the yields made, and a
// yield error propagates.
func TestParallelScanEarlyStop(t *testing.T) {
	ins := rel.NewInstanceSharded(8)
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

// TestParallelProbeBatch: a large bound-key batch over an 8-shard
// relation yields exactly the distinct set of the unsharded layout and of a
// naive filter; ErrStop ends the batch without error and a yield error
// propagates.
func TestParallelProbeBatch(t *testing.T) {
	one := rel.NewInstanceSharded(1)
	many := rel.NewInstanceSharded(8)
	for i := 0; i < 4000; i++ {
		k, v := fmt.Sprintf("k%d", i%500), fmt.Sprintf("v%d", i)
		one.MustAdd("R", k, v)
		many.MustAdd("R", k, v)
	}
	keys := make([][]string, 0, 600)
	asked := map[string]bool{}
	for i := 0; i < 600; i++ {
		keys = append(keys, []string{fmt.Sprintf("k%d", i)}) // 100 misses
		asked[keys[i][0]] = true
	}
	var naive []rel.Tuple
	for _, tu := range one.Relation("R").Tuples() {
		if asked[tu[0]] {
			naive = append(naive, tu)
		}
	}
	naive = rel.DistinctSorted(naive)
	for _, ins := range []*rel.Instance{one, many} {
		got, err := New(ins).ProbeByKeyBatch("R", []int{0}, keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(naive) || !reflect.DeepEqual(rel.DistinctSorted(got), naive) {
			t.Fatalf("%d shards: probe set diverges: %d vs %d naive tuples",
				ins.Relation("R").NumShards(), len(got), len(naive))
		}
	}
	e := New(many)
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

// TestSkewedShardScanAndProbe: every key hashing to one shard of eight
// (seven empty shards) must not change scan or probe answers.
func TestSkewedShardScanAndProbe(t *testing.T) {
	one := rel.NewInstanceSharded(1)
	many := rel.NewInstanceSharded(8)
	for i := 0; i < 1000; i++ {
		one.MustAdd("R", "hot", fmt.Sprintf("v%d", i))
		many.MustAdd("R", "hot", fmt.Sprintf("v%d", i))
	}
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("R", lang.Var("x"), lang.Var("y"))},
	}
	naive, err := rel.EvalCQ(q, one)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(one).EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(many).EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive) != 1000 || !reflect.DeepEqual(want, naive) || !reflect.DeepEqual(got, naive) {
		t.Fatalf("skewed scan diverges: sharded %d, unsharded %d, naive %d rows", len(got), len(want), len(naive))
	}
	probed, err := New(many).ProbeByKeyBatch("R", []int{0}, [][]string{{"hot"}, {"cold"}})
	if err != nil || len(probed) != 1000 {
		t.Fatalf("skewed probe: %d tuples (%v)", len(probed), err)
	}
}

// TestProbeRouting: a probe whose bound set includes column 0 must hit only
// the owning shard's index; one that does not must consult every shard.
// Both must agree with the naive oracle.
func TestProbeRouting(t *testing.T) {
	ins := rel.NewInstanceSharded(4)
	for i := 0; i < 200; i++ {
		ins.MustAdd("R", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i%10))
	}
	e := New(ins)
	routed := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("R", lang.Const("k7"), lang.Var("y"))},
	}
	unrouted := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x")),
		Body: []lang.Atom{lang.NewAtom("R", lang.Var("x"), lang.Const("v3"))},
	}
	for _, q := range []lang.CQ{routed, unrouted} {
		got, err := e.EvalCQ(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rel.EvalCQ(q, ins)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("probe mismatch on %s: %v vs %v", q, got, want)
		}
	}
	if probes, scans := e.probes.Load(), e.scans.Load(); probes == 0 || scans != 0 {
		t.Fatalf("both queries must probe: probes %d, scans %d", probes, scans)
	}
}

// TestStreamScan: yields exactly the relation's tuples, honors ErrStop,
// and treats absent relations as empty.
func TestStreamScan(t *testing.T) {
	ins := rel.NewInstanceSharded(4)
	want := map[string]bool{}
	for i := 0; i < 100; i++ {
		tu := rel.Tuple{fmt.Sprintf("k%d", i), "v"}
		ins.MustAdd("R", tu...)
		want[tu.Key()] = true
	}
	e := New(ins)
	got := map[string]bool{}
	if err := e.StreamScan("R", func(t rel.Tuple) error {
		got[t.Key()] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("StreamScan yielded %d tuples, want %d", len(got), len(want))
	}
	n := 0
	if err := e.StreamScan("R", func(rel.Tuple) error { n++; return ErrStop }); err != nil || n != 1 {
		t.Fatalf("ErrStop: n=%d err=%v", n, err)
	}
	if err := e.StreamScan("absent", func(rel.Tuple) error { t.Fatal("yield on absent"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestParallelScanConcurrentInsert runs scans over an 8-shard relation
// while a writer inserts concurrently (run with -race): every answer must
// respect the monotone envelope eval(inserted-before-start) ⊆ answer ⊆
// eval(inserted-by-end) — sharded relations are append-only, so a scan can
// never lose a pre-existing tuple or invent one.
func TestParallelScanConcurrentInsert(t *testing.T) {
	ins := rel.NewInstanceSharded(8)
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
	cards := map[string]int{"A": 10, "Fat": 50000, "Lean": 50000}
	order := OrderBody(body, func(p string) int { return cards[p] })
	if !slices.Equal(order, []int{0, 1, 2}) {
		t.Fatalf("order = %v, want [0 1 2] (A first, then Fat and Lean tied in body order)", order)
	}
	// A constant's 1/8 discount outweighs a relation 4x smaller.
	sel := []lang.Atom{
		lang.NewAtom("Small", lang.Var("x"), lang.Var("y")),
		lang.NewAtom("Big", lang.Const("c"), lang.Var("x")),
	}
	cards = map[string]int{"Small": 100, "Big": 400}
	if got := OrderBody(sel, func(p string) int { return cards[p] }); !slices.Equal(got, []int{1, 0}) {
		t.Fatalf("order = %v, want [1 0] (the selection leads)", got)
	}
}
