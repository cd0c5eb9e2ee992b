package netpeer

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/rel"
	"repro/internal/wire"
)

// startServerH is startServer returning the server handle too, so tests
// can mutate the served data mid-test.
func startServerH(t testing.TB, facts map[string][]rel.Tuple) (*Server, string) {
	t.Helper()
	data := rel.NewInstance()
	for pred, ts := range facts {
		for _, tup := range ts {
			if _, err := data.Add(pred, tup); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv := NewServer(data)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// crossPeerData is the canonical two-peer join fixture: a small bound side
// and a larger probed side.
func crossPeerData() (sm, lg map[string][]rel.Tuple) {
	sm = map[string][]rel.Tuple{"S.keys": nil}
	lg = map[string][]rel.Tuple{"L.rows": nil}
	for i := 0; i < 4; i++ {
		sm["S.keys"] = append(sm["S.keys"], rel.Tuple{fmt.Sprintf("k%d", i)})
	}
	for i := 0; i < 400; i++ {
		lg["L.rows"] = append(lg["L.rows"],
			rel.Tuple{fmt.Sprintf("k%d", i%100), fmt.Sprintf("p%d", i)})
	}
	return sm, lg
}

// instanceOf merges per-peer facts into one single-site oracle instance.
func instanceOf(peers ...map[string][]rel.Tuple) *rel.Instance {
	ins := rel.NewInstance()
	for _, m := range peers {
		for pred, ts := range m {
			for _, tu := range ts {
				ins.MustAdd(pred, tu...)
			}
		}
	}
	return ins
}

// crossPeerFixture serves crossPeerData's sides from two peers.
func crossPeerFixture(t testing.TB) (small, large *Server, ex *Executor) {
	t.Helper()
	sm, lg := crossPeerData()
	small, addr1 := startServerH(t, sm)
	large, addr2 := startServerH(t, lg)
	ex = NewExecutor()
	t.Cleanup(func() { ex.Close() })
	for _, a := range []string{addr1, addr2} {
		if err := ex.Discover(a); err != nil {
			t.Fatal(err)
		}
	}
	return small, large, ex
}

// TestFragmentCacheRepeatQueryShipsNoRows is the acceptance check for the
// cross-query fragment cache: the second identical cross-peer query must
// be answered from cached fragments — zero rows shipped, one row-free
// request per atom confirming its generation — and must return the
// identical answer.
func TestFragmentCacheRepeatQueryShipsNoRows(t *testing.T) {
	_, _, ex := crossPeerFixture(t)
	q, err := parser.ParseQuery(`q(x, y) :- S.keys(x), L.rows(x, y)`)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot after Discover, so its catalog replies count toward neither
	// query.
	ct := &ex.counters
	startBytes := ct.bytesRecv.Load()
	first, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 16 {
		t.Fatalf("first answer has %d rows, want 16", len(first))
	}
	midRows, midReqs, midBytes := ct.rowsFetched.Load(), ct.requests.Load(), ct.bytesRecv.Load()
	firstBytes := midBytes - startBytes

	again, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if !tuplesEqual(first, again) {
		t.Fatalf("cached answer diverges: %v vs %v", first, again)
	}
	if d := ct.rowsFetched.Load() - midRows; d != 0 {
		t.Fatalf("second identical query fetched %d rows, want 0", d)
	}
	if hits := ex.frags.hits.Load(); hits < 2 {
		t.Fatalf("fragment hits = %d, want >= 2 (one per atom)", hits)
	}
	if d := ct.requests.Load() - midReqs; d != 2 {
		t.Fatalf("second identical query issued %d requests, want 2 (one per atom)", d)
	}
	// The unchanged answers are two row-free metadata frames: under half
	// of what the first query's 20 rows and their metadata took.
	if d := ct.bytesRecv.Load() - midBytes; d >= firstBytes/2 {
		t.Fatalf("second query received %d bytes, first received %d — not near zero", d, firstBytes)
	}
}

// TestBindKeyTellsRepeatedVariablesApart pins the repeated-variable marker
// in a bind's fragment key: a bind of A.r(y, x, x) and one of A.r(y, x, z)
// over the same keys make the same probe on the peer, which reads only the
// atom's constants and bound columns, but their cached rows differ (the
// first keeps only rows whose last two values agree), so they must not
// share a cache entry. The marker is selectionQuery's naming of each
// variable after its first position, read through the canonical string
// fragKey starts with. The second query answers all three of A.r's rows.
func TestBindKeyTellsRepeatedVariablesApart(t *testing.T) {
	_, addrA := startServerH(t, map[string][]rel.Tuple{"A.r": {{"1", "2", "2"}, {"1", "2", "3"}, {"1", "4", "5"}}})
	_, addrB := startServerH(t, map[string][]rel.Tuple{"B.s": {{"1"}}})
	ex := NewExecutor()
	t.Cleanup(func() { ex.Close() })
	for _, a := range []string{addrA, addrB} {
		if err := ex.Discover(a); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		q    string
		want []rel.Tuple
	}{
		{`q(y, x) :- B.s(y), A.r(y, x, x)`, []rel.Tuple{{"1", "2"}}},
		{`q(y, x, z) :- B.s(y), A.r(y, x, z)`, []rel.Tuple{{"1", "2", "2"}, {"1", "2", "3"}, {"1", "4", "5"}}},
	} {
		got, err := ex.EvalCQ(parseCQ(t, c.q))
		if err != nil {
			t.Fatal(err)
		}
		if !tuplesEqual(got, c.want) {
			t.Fatalf("%s answered %v, want %v", c.q, got, c.want)
		}
	}
	if n := ex.counters.bindBatches.Load(); n != 2 {
		t.Fatalf("%d bind batches, want 2: each query binds A.r on its own key", n)
	}
}

// TestRepliesCarryGeneration: every reply that names a relation carries
// its generation — add and bind replies, and a scan conditional on the
// current generation, which is answered unchanged.
func TestRepliesCarryGeneration(t *testing.T) {
	addr := startServer(t, map[string][]rel.Tuple{"A.r": {{"1", "x"}, {"2", "x"}}})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a := lang.NewAtom("A.r", lang.Var("k"), lang.Var("v"))
	gen := uint64(3) // the generation after the add below
	for _, req := range []wire.Request{
		{Op: "add", Pred: "A.r", Rows: [][]string{{"3", "y"}}},
		{Op: "scan", Pred: "A.r", IfGen: &gen},
		{Op: "bind", Atom: &a, BindCols: []int{0}, Rows: [][]string{{"1"}}},
	} {
		resp, err := c.roundTrip(req, nil)
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		if len(resp.Gens) != 1 || resp.Gens[0] != gen {
			t.Fatalf("%s reply carries generations %v, want [%d]", req.Op, resp.Gens, gen)
		}
		if req.IfGen != nil && !resp.Unchanged {
			t.Fatalf("scan with the current generation %d was not answered unchanged: %+v", gen, resp)
		}
	}
}

// TestFragmentCacheInvalidatedByMutation: an AddFact on the probed
// relation moves its generation, so the next query must refetch the
// fragment (counted as an invalidation) and see the new tuple.
func TestFragmentCacheInvalidatedByMutation(t *testing.T) {
	_, large, ex := crossPeerFixture(t)
	q, err := parser.ParseQuery(`q(x, y) :- S.keys(x), L.rows(x, y)`)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := large.AddFact("L.rows", rel.Tuple{"k0", "fresh"}); err != nil {
		t.Fatal(err)
	}
	again, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(first)+1 {
		t.Fatalf("after mutation rows = %d, want %d (stale fragment served?)", len(again), len(first)+1)
	}
	found := false
	for _, r := range again {
		if r[0] == "k0" && r[1] == "fresh" {
			found = true
		}
	}
	if !found {
		t.Fatalf("mutated tuple missing from %v", again)
	}
	if ex.frags.invalidations.Load() == 0 {
		t.Fatal("expected a fragment invalidation after the mutation")
	}
}

// TestFragmentCacheSurvivesUnrelatedMutation pins the per-relation
// granularity of invalidation: mutating a *different* relation on the same
// peer moves only that relation's generation, so cached fragments of the
// queried relations keep hitting.
func TestFragmentCacheSurvivesUnrelatedMutation(t *testing.T) {
	small, _, ex := crossPeerFixture(t)
	// Serve an unrelated relation from the same peer as S.keys.
	if err := small.AddFact("S.other", rel.Tuple{"noise0"}); err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery(`q(x, y) :- S.keys(x), L.rows(x, y)`)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.AddFact("S.other", rel.Tuple{"noise1"}); err != nil {
		t.Fatal(err)
	}
	midInv, midHits := ex.frags.invalidations.Load(), ex.frags.hits.Load()
	again, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if !tuplesEqual(first, again) {
		t.Fatalf("answers diverge: %v vs %v", first, again)
	}
	if inv := ex.frags.invalidations.Load(); inv != midInv {
		t.Fatalf("unrelated mutation invalidated a fragment: invalidations %d -> %d", midInv, inv)
	}
	if hits := ex.frags.hits.Load(); hits < midHits+2 {
		t.Fatalf("cached fragments did not survive the unrelated mutation: hits %d -> %d", midHits, hits)
	}
}

// TestFragmentCacheEviction pins the cache's one bound, bytes: 600 small
// distinct fragments all stay cached under the executor's default budget
// (no entry count caps it), and a budget below their accounted total
// evicts least-recently-used entries first.
func TestFragmentCacheEviction(t *testing.T) {
	rows := []rel.Tuple{{"k", "v"}}
	key := func(i int) string { return fmt.Sprintf("frag%03d", i) }
	ex := NewExecutor()
	defer ex.Close()
	for i := 0; i < 600; i++ {
		ex.frags.put(key(i), 1, rows)
	}
	if n, ev := ex.frags.lru.Entries.Load(), ex.frags.lru.Evictions.Load(); n != 600 || ev != 0 {
		t.Fatalf("600 one-row fragments under the default budget: %d entries, %d evictions", n, ev)
	}

	// Room for 100 entries: 150 puts evict 50, least recently used first —
	// key 0 was looked up after the first 100 puts, so keys 1..50 go.
	per := int64(len(key(0))) + tupleBytes(rows[0])
	fc := newFragCache(100 * per)
	for i := 0; i < 150; i++ {
		if i == 100 {
			fc.lookup(key(0))
		}
		fc.put(key(i), 1, rows)
	}
	if n, ev, bytes := fc.lru.Entries.Load(), fc.lru.Evictions.Load(), fc.lru.Cost.Load(); n != 100 || ev != 50 || bytes != 100*per {
		t.Fatalf("after 150 puts into room for 100: %d entries, %d evictions, %d bytes", n, ev, bytes)
	}
	for i := 0; i < 150; i++ {
		_, _, ok := fc.lookup(key(i))
		if want := i == 0 || i > 50; ok != want {
			t.Fatalf("%s cached = %v, want %v (LRU order broken)", key(i), ok, want)
		}
	}
}

// TestFragmentCacheStaleEntryCostsOneRequest: the generation check rides
// inside the fetch, so a cached fragment whose relation moved costs only
// the fetch that refreshes it — a warm re-run after a mutation issues one
// request per atom and answers like the oracle.
func TestFragmentCacheStaleEntryCostsOneRequest(t *testing.T) {
	_, large, ex := crossPeerFixture(t)
	q, err := parser.ParseQuery(`q(x, y) :- S.keys(x), L.rows(x, y)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.EvalCQ(q); err != nil {
		t.Fatal(err)
	}
	if err := large.AddFact("L.rows", rel.Tuple{"k1", "fresh"}); err != nil {
		t.Fatal(err)
	}
	sm, lg := crossPeerData()
	want, err := engine.New(instanceOf(sm, lg, map[string][]rel.Tuple{"L.rows": {{"k1", "fresh"}}})).EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	before := ex.counters.requests.Load()
	got, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if d := ex.counters.requests.Load() - before; d != 2 {
		t.Fatalf("warm re-run after a mutation issued %d requests, want 2 (one per atom)", d)
	}
	if !tuplesEqual(got, want) {
		t.Fatalf("answer after mutation diverges from the oracle: %d rows vs %d", len(got), len(want))
	}
	if inv, hits := ex.frags.invalidations.Load(), ex.frags.hits.Load(); inv != 1 || hits != 1 {
		t.Fatalf("want the S.keys fragment hit and the L.rows one refreshed: %d invalidations, %d hits", inv, hits)
	}
}

// TestIfGenCompatibility: a server that predates ifGen ignores it and
// answers every conditional fetch with rows — the executor stays exact and
// counts the refetches as misses. A current server still streams rows for
// a request without ifGen, answers unchanged only while the generation
// matches (generation 0 included), and answers the retired gens op with an
// in-band unknown-op error.
func TestIfGenCompatibility(t *testing.T) {
	keys := []rel.Tuple{{"k0"}, {"k1"}}
	var sawIfGen atomic.Bool
	old := startStub(t, nil, func(req wire.Request) wire.Response {
		if req.IfGen != nil {
			sawIfGen.Store(true)
		}
		meta := wire.Response{Preds: []string{"S.keys"}, Cards: []int{len(keys)}, Gens: []uint64{uint64(len(keys))}}
		switch req.Op {
		case "catalog":
			return meta
		case "eval":
			meta.Rows = wire.TuplesToRows(keys)
			return meta
		}
		return wire.Response{Error: "unexpected op " + req.Op}
	})
	_, lg := crossPeerData()
	srv, addr := startServerH(t, lg)
	ex := NewExecutor()
	defer ex.Close()
	for _, a := range []string{old, addr} {
		if err := ex.Discover(a); err != nil {
			t.Fatal(err)
		}
	}
	q, err := parser.ParseQuery(`q(x, y) :- S.keys(x), L.rows(x, y)`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.New(instanceOf(map[string][]rel.Tuple{"S.keys": keys}, lg)).EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := ex.EvalCQ(q)
		if err != nil {
			t.Fatal(err)
		}
		if !tuplesEqual(got, want) {
			t.Fatalf("run %d against the old server diverges: %v vs %v", i, got, want)
		}
	}
	if !sawIfGen.Load() {
		t.Fatal("the repeat never sent ifGen to the old server")
	}
	// Cold: two misses. Repeat: the old server's S.keys refetch misses,
	// L.rows hits.
	if misses, hits := ex.frags.misses.Load(), ex.frags.hits.Load(); misses != 3 || hits != 1 {
		t.Fatalf("fragment cache against the old server: %d misses, %d hits", misses, hits)
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// scan returns the final frame, its Rows set to every row the stream
	// delivered.
	scan := func(pred string, ifGen *uint64) wire.Response {
		t.Helper()
		var rows [][]string
		resp, err := c.roundTrip(wire.Request{Op: "scan", Pred: pred, IfGen: ifGen}, func(frame [][]string) error {
			rows = append(rows, frame...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		resp.Rows = rows
		return resp
	}
	plain := scan("L.rows", nil)
	if len(plain.Rows) != len(lg["L.rows"]) || plain.Unchanged {
		t.Fatalf("scan without ifGen: %d rows, unchanged=%v", len(plain.Rows), plain.Unchanged)
	}
	gen := plain.Gens[0]
	if same := scan("L.rows", &gen); !same.Unchanged || len(same.Rows) != 0 || same.Gens[0] != gen {
		t.Fatalf("scan with the current generation: %d rows, unchanged=%v", len(same.Rows), same.Unchanged)
	}
	stale := gen - 1
	if moved := scan("L.rows", &stale); moved.Unchanged || len(moved.Rows) != len(lg["L.rows"]) {
		t.Fatalf("scan with a stale generation: %d rows, unchanged=%v", len(moved.Rows), moved.Unchanged)
	}
	var zero uint64
	if absent := scan("L.absent", &zero); !absent.Unchanged {
		t.Fatal("ifGen 0 on an empty relation was not answered unchanged: presence, not value, marks the request")
	}
	// The retired gens op gets the in-band unknown-op error, and the
	// connection stays usable.
	if _, err := c.roundTrip(wire.Request{Op: "gens"}, nil); err == nil || !strings.Contains(err.Error(), `unknown op "gens"`) {
		t.Fatalf("gens op: %v, want an unknown op error", err)
	}
	if again := scan("L.rows", nil); len(again.Rows) != len(lg["L.rows"]) {
		t.Fatalf("scan after the gens error: %d rows", len(again.Rows))
	}
	if n := srv.readErrors.Load(); n != 0 {
		t.Fatalf("server read errors: %d", n)
	}
}
