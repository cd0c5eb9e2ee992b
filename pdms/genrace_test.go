package pdms

import (
	"sync/atomic"
	"testing"
	"time"
)

// These tests pin the stale-generation cache fix: Query/Reformulate used
// to snapshot the generation under one RLock, release it, and compute
// under a second RLock — an Extend/AddFact interleaved between the two
// stored a post-mutation result under the pre-mutation cache key. The
// testHookPostKey hook fires right after the cache key is stamped; the
// tests use it to launch a mutation at exactly that moment and give it
// generous time to (incorrectly) complete. With the fix the key stamp and
// the computation share one lock section, so the mutation must block and
// the first result must reflect the pre-mutation state.

// armRaceHook installs testHookPostKey so that its first firing runs
// mutate in the background and then waits long enough for the mutation to
// finish were it not excluded by the lock. It returns a channel closed
// when the mutation completes.
func armRaceHook(t *testing.T, mutate func()) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	var fired atomic.Bool
	testHookPostKey = func() {
		if !fired.CompareAndSwap(false, true) {
			return
		}
		go func() {
			defer close(done)
			mutate()
		}()
		// Buggy code has released the lock here: the mutation completes
		// during this sleep and the subsequent computation sees its
		// effects. Fixed code holds the lock: the mutation stays blocked.
		time.Sleep(50 * time.Millisecond)
	}
	t.Cleanup(func() { testHookPostKey = nil })
	return done
}

func TestQueryGenSnapshotExcludesInterleavedMutation(t *testing.T) {
	net, err := Load(`
storage A.r(x) in A:R(x)
fact A.r("1")
`)
	if err != nil {
		t.Fatal(err)
	}
	done := armRaceHook(t, func() {
		if err := net.AddFact("A.r", "2"); err != nil {
			t.Error(err)
		}
	})
	rows, err := net.Query(`q(x) :- A:R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("pre-mutation query saw %d rows, want 1 (AddFact interleaved with the generation snapshot)", len(rows))
	}
	<-done
	testHookPostKey = nil
	// The new generation must recompute — and must not be served the
	// answer the racing reader cached.
	rows, err = net.Query(`q(x) :- A:R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("post-mutation query saw %d rows, want 2", len(rows))
	}
}

// TestUnrelatedMutationAtWorstMomentKeepsKeysDisjoint aims the same
// worst-case interleaving at the *per-relation* generation-vector keys: an
// AddFact to B.s fired right after a query over A:R stamps its key. The
// mutation must not leak into the A:R entry (its genvector omits B.s), the
// entry must stay valid afterwards (hit on re-query — the whole point of
// per-relation keys), and B:S queries must see the new fact.
func TestUnrelatedMutationAtWorstMomentKeepsKeysDisjoint(t *testing.T) {
	net, err := Load(`
storage A.r(x) in A:R(x)
storage B.s(x) in B:S(x)
fact A.r("1")
fact B.s("1")
`)
	if err != nil {
		t.Fatal(err)
	}
	done := armRaceHook(t, func() {
		if err := net.AddFact("B.s", "2"); err != nil {
			t.Error(err)
		}
	})
	rows, err := net.Query(`q(x) :- A:R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("A:R rows = %v", rows)
	}
	<-done
	testHookPostKey = nil
	hits0 := net.answers.Hits.Load()
	rows, err = net.Query(`q(x) :- A:R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("A:R rows after unrelated mutation = %v", rows)
	}
	if hits1 := net.answers.Hits.Load(); hits1 != hits0+1 {
		t.Fatalf("unrelated B.s mutation invalidated the A:R entry: hits %d -> %d", hits0, hits1)
	}
	rows, err = net.Query(`q(x) :- B:S(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("B:S rows = %v, want 2", rows)
	}
}

func TestReformulateGenSnapshotExcludesInterleavedExtend(t *testing.T) {
	net, err := Load(`storage A.r(x) in A:R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	done := armRaceHook(t, func() {
		if err := net.Extend(`storage B.s(x) in A:R(x)`); err != nil {
			t.Error(err)
		}
	})
	ref, err := net.Reformulate(`q(x) :- A:R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := ref.Rewriting.Len(); got != 1 {
		t.Fatalf("pre-Extend rewriting has %d disjuncts, want 1 (Extend interleaved with the generation snapshot)", got)
	}
	<-done
	testHookPostKey = nil
	ref, err = net.Reformulate(`q(x) :- A:R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := ref.Rewriting.Len(); got != 2 {
		t.Fatalf("post-Extend rewriting has %d disjuncts, want 2", got)
	}
}
