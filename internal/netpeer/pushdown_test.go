package netpeer

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/wire"
)

// pushdownData is one peer's relations for the push-down tests: A.log(i, k,
// p) with 20 rows under each of the keys k0..k2, and A.tag(k, t) naming
// each key.
func pushdownData() map[string][]rel.Tuple {
	facts := map[string][]rel.Tuple{}
	for k := 0; k < 3; k++ {
		key := fmt.Sprintf("k%d", k)
		for i := 0; i < 20; i++ {
			facts["A.log"] = append(facts["A.log"], rel.Tuple{fmt.Sprintf("i%d_%d", k, i), key, fmt.Sprintf("p%d", i)})
		}
		facts["A.tag"] = append(facts["A.tag"], rel.Tuple{key, "t" + key})
	}
	return facts
}

// pushdownFixture serves pushdownData from one peer through a fresh
// executor; facts is what the peer holds, for the oracle.
func pushdownFixture(t testing.TB) (srv *Server, addr string, ex *Executor, facts map[string][]rel.Tuple) {
	t.Helper()
	facts = pushdownData()
	srv, addr = startServerH(t, facts)
	ex = NewExecutor()
	t.Cleanup(func() { ex.Close() })
	if err := ex.Discover(addr); err != nil {
		t.Fatal(err)
	}
	return srv, addr, ex, facts
}

// evalAgainstOracle evaluates u through ex and fails t unless the answer
// equals u over oracle, a single-site instance.
func evalAgainstOracle(t testing.TB, ex *Executor, u lang.UCQ, oracle *rel.Instance) []rel.Tuple {
	t.Helper()
	got, err := ex.EvalUCQ(u)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rel.EvalUCQ(u, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !tuplesEqual(got, want) {
		t.Fatalf("%s: answer %v, want %v", u, got, want)
	}
	return got
}

// pushdownCounts reads the wire and fragment-cache counters the push-down
// tests watch.
type pushdownCounts struct{ requests, rows, hits, misses, invalidations, shared uint64 }

func countsOf(ex *Executor) pushdownCounts {
	return pushdownCounts{
		requests: ex.counters.requests.Load(), rows: ex.counters.rowsFetched.Load(),
		hits: ex.frags.hits.Load(), misses: ex.frags.misses.Load(),
		invalidations: ex.frags.invalidations.Load(), shared: ex.frags.shared.Load(),
	}
}

func (c pushdownCounts) minus(d pushdownCounts) pushdownCounts {
	return pushdownCounts{c.requests - d.requests, c.rows - d.rows, c.hits - d.hits,
		c.misses - d.misses, c.invalidations - d.invalidations, c.shared - d.shared}
}

// TestPushdownRepeatIsOneRowFreeRequest: a push-down that reads one
// relation goes through the fragment cache, so its repeat over unchanged
// data is one request answered unchanged — no rows — and one hit, with the
// answer a fresh executor and the oracle give.
func TestPushdownRepeatIsOneRowFreeRequest(t *testing.T) {
	_, addr, ex, facts := pushdownFixture(t)
	u := lang.UCQ{Disjuncts: []lang.CQ{parseCQ(t, `q(i, p) :- A.log(i, "k1", p)`)}}
	oracle := instanceOf(facts)
	cold := countsOf(ex)
	first := evalAgainstOracle(t, ex, u, oracle)
	if d := countsOf(ex).minus(cold); d.requests != 1 || d.rows != 20 || d.misses != 1 || d.hits != 0 {
		t.Fatalf("cold push-down: %+v, want one request, 20 rows, one miss", d)
	}
	warm := countsOf(ex)
	again := evalAgainstOracle(t, ex, u, oracle)
	if d := countsOf(ex).minus(warm); d.requests != 1 || d.rows != 0 || d.hits != 1 || d.misses != 0 {
		t.Fatalf("repeated push-down: %+v, want one request, 0 rows, one hit", d)
	}
	if !tuplesEqual(first, again) {
		t.Fatalf("repeat answered %v, first %v", again, first)
	}
	fresh := NewExecutor()
	defer fresh.Close()
	fresh.Route("A.log", addr)
	evalAgainstOracle(t, fresh, u, oracle)
}

// TestPushdownRefetchesAfterAdd: an add through the wire to a push-down's
// relation moves its generation, so exactly the push-downs over that
// relation refetch — the cached entry counted as one invalidation — and
// answer with the new row, while a push-down over another relation of the
// same peer still hits.
func TestPushdownRefetchesAfterAdd(t *testing.T) {
	_, addr, ex, facts := pushdownFixture(t)
	logQ := lang.UCQ{Disjuncts: []lang.CQ{parseCQ(t, `q(i, p) :- A.log(i, "k1", p)`)}}
	tagQ := lang.UCQ{Disjuncts: []lang.CQ{parseCQ(t, `q(t) :- A.tag("k1", t)`)}}
	evalAgainstOracle(t, ex, logQ, instanceOf(facts))
	evalAgainstOracle(t, ex, tagQ, instanceOf(facts))

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	added := rel.Tuple{"new", "k1", "pnew"}
	if _, err := c.Add("A.log", [][]string{added}); err != nil {
		t.Fatal(err)
	}
	oracle := instanceOf(facts, map[string][]rel.Tuple{"A.log": {added}})

	before := countsOf(ex)
	got := evalAgainstOracle(t, ex, logQ, oracle)
	if d := countsOf(ex).minus(before); d.requests != 1 || d.rows != 21 || d.invalidations != 1 || d.hits != 0 {
		t.Fatalf("push-down after an add to its relation: %+v, want one request, 21 rows, one invalidation", d)
	}
	if len(got) != 21 {
		t.Fatalf("answer after the add has %d rows, want 21", len(got))
	}
	before = countsOf(ex)
	evalAgainstOracle(t, ex, tagQ, oracle)
	if d := countsOf(ex).minus(before); d.requests != 1 || d.rows != 0 || d.hits != 1 || d.invalidations != 0 {
		t.Fatalf("push-down over the other relation: %+v, want one row-free hit", d)
	}
	fresh := NewExecutor()
	defer fresh.Close()
	fresh.Route("A.log", addr)
	evalAgainstOracle(t, fresh, logQ, oracle)
}

// TestPushdownMultiRelationNeverStale: a push-down joining two co-located
// relations shares its flight but is never cached — the peer confirms no
// generation for two relations — so an add to its second relation shows in
// the next answer, and the fragment cache holds no entry for it.
func TestPushdownMultiRelationNeverStale(t *testing.T) {
	_, addr, ex, facts := pushdownFixture(t)
	u := lang.UCQ{Disjuncts: []lang.CQ{parseCQ(t, `q(i, t) :- A.log(i, k, "p3"), A.tag(k, t)`)}}
	evalAgainstOracle(t, ex, u, instanceOf(facts))
	evalAgainstOracle(t, ex, u, instanceOf(facts))
	if n := ex.frags.entries.Load(); n != 0 {
		t.Fatalf("a two-relation push-down left %d cache entries, want 0", n)
	}
	if n := ex.frags.hits.Load(); n != 0 {
		t.Fatalf("a two-relation push-down was served from the cache %d times", n)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	added := rel.Tuple{"k1", "tnew"}
	if _, err := c.Add("A.tag", [][]string{added}); err != nil {
		t.Fatal(err)
	}
	got := evalAgainstOracle(t, ex, u, instanceOf(facts, map[string][]rel.Tuple{"A.tag": {added}}))
	if len(got) != 4 {
		t.Fatalf("answer after the add has %d rows, want 4 (three keys' p3 row, k1's twice)", len(got))
	}
}

// TestPushdownStubIgnoringIfGenStaysExact: a peer that ignores ifGen
// answers every conditional push-down with rows, under an unmoved
// generation; the executor serves those rows, never the cached ones, and
// counts each repeat as a miss.
func TestPushdownStubIgnoringIfGenStaysExact(t *testing.T) {
	var calls atomic.Int64
	var sawIfGen atomic.Bool
	addr := startStub(t, nil, func(req wire.Request) wire.Response {
		meta := wire.Response{Preds: []string{"S.r"}, Cards: []int{1}, Gens: []uint64{7}}
		switch req.Op {
		case "catalog":
			return meta
		case "eval":
			if req.IfGen != nil {
				sawIfGen.Store(true)
			}
			// The rows change on every call though the generation does
			// not: only the rows on the wire are right.
			meta.Rows = [][]string{{fmt.Sprintf("v%d", calls.Add(1))}}
			return meta
		}
		return wire.Response{Error: "unexpected op " + req.Op}
	})
	ex := NewExecutor()
	defer ex.Close()
	if err := ex.Discover(addr); err != nil {
		t.Fatal(err)
	}
	u := lang.UCQ{Disjuncts: []lang.CQ{parseCQ(t, `q(x) :- S.r(x)`)}}
	for i := 1; i <= 3; i++ {
		got, err := ex.EvalUCQ(u)
		if err != nil {
			t.Fatal(err)
		}
		if want := []rel.Tuple{{fmt.Sprintf("v%d", i)}}; !tuplesEqual(got, want) {
			t.Fatalf("call %d answered %v, want the stub's %v", i, got, want)
		}
	}
	if !sawIfGen.Load() {
		t.Fatal("the repeated push-down never sent ifGen")
	}
	if hits, misses := ex.frags.hits.Load(), ex.frags.misses.Load(); hits != 0 || misses != 3 {
		t.Fatalf("against a peer ignoring ifGen: %d hits, %d misses, want 0 and 3", hits, misses)
	}
}

// TestClientEvalWithoutIfGenStreamsRows: a Client sending no ifGen gets
// rows for every eval, repeated or not — Eval, evalFrames and a
// conditional-free roundTrip alike — never an unchanged answer.
func TestClientEvalWithoutIfGenStreamsRows(t *testing.T) {
	_, addr, _, facts := pushdownFixture(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := parseCQ(t, `q(i, p) :- A.log(i, "k2", p)`)
	want, err := engine.New(instanceOf(facts)).EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := c.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		if !tuplesEqual(got, want) {
			t.Fatalf("Eval %d: %d rows, want %d", i, len(got), len(want))
		}
		n := 0
		if err := c.evalFrames(q, nil, func(rows [][]string) error { n += len(rows); return nil }, nil); err != nil {
			t.Fatal(err)
		}
		if n != len(want) {
			t.Fatalf("evalFrames %d: %d rows, want %d", i, n, len(want))
		}
		final, err := c.roundTrip(wire.Request{Op: "eval", Query: &q}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if final.Unchanged {
			t.Fatalf("eval %d without ifGen answered unchanged", i)
		}
	}
}

// TestUnchangedNeedsOneRelation pins the server's unchanged guard at the
// wire: ifGen names one relation's generation, so an eval over two
// relations is answered with rows even when its ifGen equals the first
// relation's generation. After a write to the second relation, an
// unchanged answer would be stale. The executor never sends ifGen for such
// a push-down, so only a request written by hand reaches the guard.
func TestUnchangedNeedsOneRelation(t *testing.T) {
	_, addr, _, facts := pushdownFixture(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := parseCQ(t, `q(i, t) :- A.log(i, k, "p3"), A.tag(k, t)`)
	first, err := c.roundTrip(wire.Request{Op: "eval", Query: &q}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Preds) != 2 || first.Preds[0] != "A.log" {
		t.Fatalf("eval metadata names %v, want A.log then A.tag", first.Preds)
	}
	added := rel.Tuple{"k1", "tnew"}
	if _, err := c.Add("A.tag", [][]string{added}); err != nil {
		t.Fatal(err)
	}
	want, err := engine.New(instanceOf(facts, map[string][]rel.Tuple{"A.tag": {added}})).EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	ifGen := first.Gens[0] // A.log's generation, which the add left alone
	var got []rel.Tuple
	final, err := c.roundTrip(wire.Request{Op: "eval", Query: &q, IfGen: &ifGen}, func(rows [][]string) error {
		for _, r := range rows {
			got = append(got, rel.Tuple(r))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Unchanged {
		t.Fatal("an eval over two relations was answered unchanged on its first relation's generation")
	}
	rel.SortTuples(got)
	if !tuplesEqual(got, want) {
		t.Fatalf("eval after the add streamed %v, want %v", got, want)
	}
}

// TestPushdownAnswersSharedAcrossGoroutines: a push-down hit returns the
// cached tuples, so concurrent queries share them. Eight goroutines repeat
// one two-peer union of push-downs and check every answer against the
// oracle; under -race any write to a shared answer or cache entry reports.
func TestPushdownAnswersSharedAcrossGoroutines(t *testing.T) {
	_, _, ex, facts := pushdownFixture(t)
	other := map[string][]rel.Tuple{"B.log": {{"b0", "k1", "p0"}, {"b1", "k1", "p1"}, {"b2", "k2", "p2"}}}
	_, addrB := startServerH(t, other)
	if err := ex.Discover(addrB); err != nil {
		t.Fatal(err)
	}
	u := lang.UCQ{Disjuncts: []lang.CQ{
		parseCQ(t, `q(i, p) :- A.log(i, "k1", p)`),
		parseCQ(t, `q(i, p) :- B.log(i, "k1", p)`),
	}}
	want, err := rel.EvalUCQ(u, instanceOf(facts, other))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				got, err := ex.EvalUCQ(u)
				if err != nil {
					errc <- err
					return
				}
				if !tuplesEqual(got, want) {
					errc <- fmt.Errorf("answer %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if hits := ex.frags.hits.Load(); hits == 0 {
		t.Fatal("no push-down was served from the cache")
	}
}

// TestPushdownSpansAndSharedFlight: the pushdown span says where its rows
// came from, like an atom span — src=fetch with the rows received on a
// cold cache, src=fragcache with the cached row count on a repeat — and
// two disjuncts that are one push-down up to variable names share its
// flight: one request, the second span src=shared.
func TestPushdownSpansAndSharedFlight(t *testing.T) {
	_, _, ex, _ := pushdownFixture(t)
	u := lang.UCQ{Disjuncts: []lang.CQ{
		parseCQ(t, `q(i, p) :- A.log(i, "k0", p)`),
		parseCQ(t, `q(a, b) :- A.log(a, "k0", b)`),
	}}
	tr := obs.NewTracer(4)
	run := func() []*obs.Span {
		t.Helper()
		root := tr.ForceTrace("query")
		before := countsOf(ex)
		if _, err := ex.EvalUCQSpan(u, root); err != nil {
			t.Fatal(err)
		}
		root.End()
		if d := countsOf(ex).minus(before); d.requests != 1 || d.shared != 1 {
			t.Fatalf("two disjuncts of one push-down: %+v, want one request and one shared flight", d)
		}
		return spansNamed(root, "pushdown")
	}
	for i, want := range []string{"fetch", "fragcache"} {
		srcs := map[string]string{}
		for _, sp := range run() {
			attrs := sp.AttrMap()
			srcs[attrs["src"]] = attrs["fetched"]
		}
		if len(srcs) != 2 || srcs[want] != "20" || srcs["shared"] != "20" {
			t.Fatalf("run %d: pushdown spans src→fetched %v, want %s and shared, 20 rows each", i, srcs, want)
		}
	}
}

// TestPushdownKeyTellsQueriesApart: push-downs over one relation that
// differ in a constant, a head position, a repeated variable or a
// comparison get their own cache entries. Each is posed twice in turn at
// one warm executor — the repeats answered unchanged from the cache — and
// must answer as the oracle does every time.
func TestPushdownKeyTellsQueriesApart(t *testing.T) {
	_, _, ex, facts := pushdownFixture(t)
	oracle := instanceOf(facts)
	texts := []string{
		`q(i, p) :- A.log(i, "k1", p)`,
		`q(i, p) :- A.log(i, "k2", p)`,
		`q(p, i) :- A.log(i, "k2", p)`,
		`q(i, p) :- A.log(i, "k2", p), p < "p3"`,
		`q(i) :- A.log(i, "k2", "p3")`,
		`q(k) :- A.log(i, k, k)`,
		`q(k) :- A.log(i, k, p)`,
	}
	for round := 0; round < 2; round++ {
		for _, text := range texts {
			evalAgainstOracle(t, ex, lang.UCQ{Disjuncts: []lang.CQ{parseCQ(t, text)}}, oracle)
		}
	}
	if hits, entries := ex.frags.hits.Load(), ex.frags.entries.Load(); hits != uint64(len(texts)) || entries != int64(len(texts)) {
		t.Fatalf("%d hits over %d cache entries, want %d of each", hits, entries, len(texts))
	}
}
