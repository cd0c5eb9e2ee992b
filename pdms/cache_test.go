package pdms

import (
	"reflect"
	"testing"
)

// TestAnswerCacheHit verifies repeated queries are served from the answer
// cache (no re-reformulation, no re-execution).
func TestAnswerCacheHit(t *testing.T) {
	net, err := Load(`
storage A.r(x) in A:R(x)
fact A.r("1")
`)
	if err != nil {
		t.Fatal(err)
	}
	first, err := net.Query(`q(x) :- A:R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	again, err := net.Query(`q(x) :- A:R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("cached answer differs: %v vs %v", first, again)
	}
	hits := net.answers.Hits.Load()
	if hits == 0 {
		t.Fatal("expected an answer-cache hit")
	}
	// Alpha-equivalent query (renamed variable) shares the cache entry.
	renamed, err := net.Query(`q(y) :- A:R(y)`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, renamed) {
		t.Fatalf("alpha-equivalent query differs: %v vs %v", first, renamed)
	}
	if hits2 := net.answers.Hits.Load(); hits2 != hits+1 {
		t.Fatalf("alpha-equivalent query missed the cache: hits %d -> %d", hits, hits2)
	}
}

// TestAddFactInvalidatesAnswers is the acceptance check for the
// mutation-invalidated answer cache: a query, then AddFact, then the same
// query must reflect the new fact.
func TestAddFactInvalidatesAnswers(t *testing.T) {
	net, err := Load(`
storage A.r(x) in A:R(x)
fact A.r("1")
`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := net.Query(`q(x) :- A:R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	// Warm the cache a second time, then mutate.
	if _, err := net.Query(`q(x) :- A:R(x)`); err != nil {
		t.Fatal(err)
	}
	if err := net.AddFact("A.r", "2"); err != nil {
		t.Fatal(err)
	}
	rows, err = net.Query(`q(x) :- A:R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("after AddFact rows = %v, want 2 (stale cached answer served?)", rows)
	}
}

// TestUnrelatedAddFactKeepsCacheHit is the acceptance regression for
// per-relation generation keying: an AddFact to relation B.s must leave
// the cached answer for a query whose rewriting only mentions A.r valid —
// the re-issued query hits the cache — while queries touching B.s see the
// new fact.
func TestUnrelatedAddFactKeepsCacheHit(t *testing.T) {
	net, err := Load(`
storage A.r(x) in A:R(x)
storage B.s(x) in B:S(x)
fact A.r("1")
fact B.s("1")
`)
	if err != nil {
		t.Fatal(err)
	}
	first, err := net.Query(`q(x) :- A:R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	hits0, inv0 := net.answers.Hits.Load(), net.invalidations.Load()
	if err := net.AddFact("B.s", "2"); err != nil {
		t.Fatal(err)
	}
	again, err := net.Query(`q(x) :- A:R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("answer changed across an unrelated mutation: %v vs %v", first, again)
	}
	if hits1 := net.answers.Hits.Load(); hits1 != hits0+1 {
		t.Fatalf("unrelated AddFact invalidated the cached answer: hits %d -> %d", hits0, hits1)
	}
	if inv1 := net.invalidations.Load(); inv1 != inv0+1 {
		t.Fatalf("AddFact did not count as an invalidation event: %d -> %d", inv0, inv1)
	}
	// The mutated relation's own queries must of course see the new fact.
	rows, err := net.Query(`q(x) :- B:S(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("B:S rows = %v, want 2", rows)
	}
}

// TestAddFactInvalidatesOnlyTouchedRelation drives the same property
// through a union rewriting: a query over U:All (rewriting mentions both
// A.r and D.w) must be invalidated by a mutation of either, while a query
// over A:R alone survives a D.w mutation.
func TestAddFactInvalidatesOnlyTouchedRelation(t *testing.T) {
	net, err := Load(`
storage A.r(x) in A:R(x)
storage D.w(x) in D:W(x)
include A:R(x) in U:All(x)
include D:W(x) in U:All(x)
fact A.r("a1")
fact D.w("d1")
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Query(`q(x) :- A:R(x)`); err != nil {
		t.Fatal(err)
	}
	union, err := net.Query(`q(x) :- U:All(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(union) != 2 {
		t.Fatalf("union rows = %v", union)
	}
	hits0 := net.answers.Hits.Load()
	if err := net.AddFact("D.w", "d2"); err != nil {
		t.Fatal(err)
	}
	// A:R query survives the D.w mutation (hit)...
	if _, err := net.Query(`q(x) :- A:R(x)`); err != nil {
		t.Fatal(err)
	}
	hits1 := net.answers.Hits.Load()
	if hits1 != hits0+1 {
		t.Fatalf("A:R answer lost to a D.w mutation: hits %d -> %d", hits0, hits1)
	}
	// ...while the union query, whose rewriting mentions D.w, recomputes.
	union, err = net.Query(`q(x) :- U:All(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(union) != 3 {
		t.Fatalf("union rows after mutation = %v, want 3 (stale union served?)", union)
	}
	if hits2 := net.answers.Hits.Load(); hits2 != hits1 {
		t.Fatalf("union query was served stale from the cache: hits %d -> %d", hits1, hits2)
	}
}

// TestExtendInvalidatesAnswers verifies Extend invalidates both the answer
// cache and the reformulation cache: a new mapping and a new fact must be
// visible to a query whose answer (and rewriting) was cached before.
func TestExtendInvalidatesAnswers(t *testing.T) {
	net, err := Load(`
storage A.r(x) in A:R(x)
include A:R(x) in B:S(x)
fact A.r("1")
`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := net.Query(`q(x) :- B:S(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	// Extend with a second storage path into B:S plus a fact in it: the
	// cached rewriting for the query cannot cover C.s, so serving either
	// cache stale would lose the new answer.
	err = net.Extend(`
storage C.s(x) in B:S(x)
fact C.s("2")
`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err = net.Query(`q(x) :- B:S(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("after Extend rows = %v, want 2 (stale cached rewriting or answer?)", rows)
	}
}

// TestFailedExtendStillInvalidates: an Extend that errors partway may have
// already merged declarations or mappings (the merge is not transactional),
// so the caches are invalidated even on failure — belt and braces. The
// network must stay consistent and serve fresh answers afterwards.
func TestFailedExtendStillInvalidates(t *testing.T) {
	net, err := Load(`
storage A.r(x) in A:R(x)
fact A.r("1")
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Query(`q(x) :- A:R(x)`); err != nil {
		t.Fatal(err)
	}
	err = net.Extend(`
storage C.s(x) in A:R(x)
stored A.r(x, y)
`)
	if err == nil {
		t.Fatal("conflicting Extend accepted")
	}
	// Whatever partially merged, subsequent mutations and queries must not
	// be answered from pre-Extend cache entries.
	if err := net.AddFact("A.r", "2"); err != nil {
		t.Fatal(err)
	}
	rows, err := net.Query(`q(x) :- A:R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v, want 2 (stale cache after failed Extend)", rows)
	}
}

// TestCachesTellConstantsApart poses two queries that shared one cache key
// while keys wrote constants raw, in both orders: each must get its own
// rewriting and the chase oracle's answers.
func TestCachesTellConstantsApart(t *testing.T) {
	const spec = `
storage A.r(a, b) in P:R(a, b)
storage A.s(a) in P:S(a)
fact A.r("a,=b", "k")
fact A.s("k")
`
	texts := []string{`q(y) :- P:R("a,=b", y), P:S(y)`, `q(y) :- P:R("a", "b,?0"), P:S(y)`}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		net, err := Load(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			text := texts[i]
			got, err := net.Query(text)
			if err != nil {
				t.Fatal(err)
			}
			want, err := net.CertainAnswers(text)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Errorf("order %v: Query(%s) = %v, CertainAnswers = %v", order, text, got, want)
			}
			ref, err := net.Reformulate(text)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Load(spec)
			if err != nil {
				t.Fatal(err)
			}
			wantRef, err := fresh.Reformulate(text)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Rewriting.String() != wantRef.Rewriting.String() {
				t.Errorf("order %v: Reformulate(%s) =\n%s\nwant\n%s", order, text, ref.Rewriting, wantRef.Rewriting)
			}
		}
	}
}
