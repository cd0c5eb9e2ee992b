package netpeer

import (
	"fmt"
	"testing"

	"repro/internal/parser"
	"repro/internal/rel"
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

// crossPeerFixture starts the canonical two-peer join fixture: a small
// bound side on one peer, a larger probed side on the other.
func crossPeerFixture(t testing.TB) (small, large *Server, ex *Executor) {
	t.Helper()
	sm := map[string][]rel.Tuple{"S.keys": nil}
	lg := map[string][]rel.Tuple{"L.rows": nil}
	for i := 0; i < 4; i++ {
		sm["S.keys"] = append(sm["S.keys"], rel.Tuple{fmt.Sprintf("k%d", i)})
	}
	for i := 0; i < 400; i++ {
		lg["L.rows"] = append(lg["L.rows"],
			rel.Tuple{fmt.Sprintf("k%d", i%100), fmt.Sprintf("p%d", i)})
	}
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
// be answered from cached fragments — zero rows shipped, only the tiny
// gens revalidation round trips — and must return the identical answer.
func TestFragmentCacheRepeatQueryShipsNoRows(t *testing.T) {
	_, _, ex := crossPeerFixture(t)
	q, err := parser.ParseQuery(`q(x, y) :- S.keys(x), L.rows(x, y)`)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 16 {
		t.Fatalf("first answer has %d rows, want 16", len(first))
	}
	mid := ex.WireStats()

	again, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if !tuplesEqual(first, again) {
		t.Fatalf("cached answer diverges: %v vs %v", first, again)
	}
	after := ex.WireStats()
	if d := after.RowsFetched - mid.RowsFetched; d != 0 {
		t.Fatalf("second identical query fetched %d rows, want 0", d)
	}
	st := ex.FragmentStats()
	if st.Hits < 2 {
		t.Fatalf("fragment hits = %d, want >= 2 (one per atom): %+v", st.Hits, st)
	}
	if st.Revalidations == 0 {
		t.Fatalf("expected gens revalidations before serving cached fragments: %+v", st)
	}
	// The revalidation round trips are row-free and tiny next to the
	// fragment shipping they replace.
	if d := after.BytesRecv - mid.BytesRecv; d >= (mid.BytesRecv-0)/4 {
		t.Fatalf("second query received %d bytes, first received %d — not near zero", d, mid.BytesRecv)
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
	if st := ex.FragmentStats(); st.Invalidations == 0 {
		t.Fatalf("expected a fragment invalidation after the mutation: %+v", st)
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
	mid := ex.FragmentStats()
	again, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if !tuplesEqual(first, again) {
		t.Fatalf("answers diverge: %v vs %v", first, again)
	}
	st := ex.FragmentStats()
	if st.Invalidations != mid.Invalidations {
		t.Fatalf("unrelated mutation invalidated a fragment: %+v -> %+v", mid, st)
	}
	if st.Hits < mid.Hits+2 {
		t.Fatalf("cached fragments did not survive the unrelated mutation: %+v -> %+v", mid, st)
	}
}

// TestFragmentCacheEviction bounds the cache: with a one-entry budget the
// second distinct fragment must evict the first (no unbounded growth), and
// re-querying the first is a miss again.
func TestFragmentCacheEviction(t *testing.T) {
	_, _, ex := crossPeerFixture(t)
	ex.frags.setLimits(1, 0)
	q1, err := parser.ParseQuery(`q(x, y) :- S.keys(x), L.rows(x, y)`)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := parser.ParseQuery(`q(y) :- S.keys(x), L.rows(x, y)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.EvalCQ(q1); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.EvalCQ(q2); err != nil {
		t.Fatal(err)
	}
	st := ex.FragmentStats()
	if st.Entries > 1 {
		t.Fatalf("cache holds %d entries, limit 1", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatalf("expected evictions under a one-entry budget: %+v", st)
	}
}
