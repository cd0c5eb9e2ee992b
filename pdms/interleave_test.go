package pdms

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/lang"
	"repro/internal/rel"
)

// The randomized mutation-interleaving harness. Mutators insert facts
// (AddFact, and Extend carrying fact statements) while queriers pose
// queries; every answer is checked against a *linearizability envelope*
// built from two shadow ledgers:
//
//   - done:   facts whose mutation had returned before the query started
//   - issued: facts whose mutation had been called by the time it returned
//
// All mutations are inserts and CQ/UCQ evaluation is monotone, so any
// answer consistent with *some* generation vector between the query's
// start and end must satisfy
//
//	eval(rewriting, done) ⊆ answer ⊆ eval(rewriting, issued)
//
// evaluated by the naive oracle (package rel) over the shadow instances.
// An answer outside the envelope means a cache key mixed generations —
// e.g. a stale per-relation entry served across an invalidating mutation,
// or a post-mutation answer stored under a pre-mutation key.

// shadowLedger tracks issued/done facts per stored relation.
type shadowLedger struct {
	mu     sync.Mutex
	issued map[string][]rel.Tuple
	done   map[string][]rel.Tuple
}

func newShadowLedger() *shadowLedger {
	return &shadowLedger{issued: map[string][]rel.Tuple{}, done: map[string][]rel.Tuple{}}
}

// seed records a fact present before the run starts (issued and done).
func (s *shadowLedger) seed(pred string, t rel.Tuple) {
	s.issued[pred] = append(s.issued[pred], t)
	s.done[pred] = append(s.done[pred], t)
}

// around wraps one fact insertion: issue before, complete after.
func (s *shadowLedger) around(pred string, t rel.Tuple, insert func() error) error {
	s.mu.Lock()
	s.issued[pred] = append(s.issued[pred], t)
	s.mu.Unlock()
	if err := insert(); err != nil {
		return err
	}
	s.mu.Lock()
	s.done[pred] = append(s.done[pred], t)
	s.mu.Unlock()
	return nil
}

// snapshot builds instances from the current done and issued ledgers under
// one lock section, so the pair is itself consistent.
func (s *shadowLedger) snapshot() (done, issued *rel.Instance) {
	s.mu.Lock()
	defer s.mu.Unlock()
	build := func(m map[string][]rel.Tuple) *rel.Instance {
		ins := rel.NewInstance()
		for pred, ts := range m {
			for _, t := range ts {
				if _, err := ins.Add(pred, t); err != nil {
					panic(err)
				}
			}
		}
		return ins
	}
	return build(s.done), build(s.issued)
}

// snapshotDone returns only the done-side instance (taken before a query).
func (s *shadowLedger) snapshotDone() *rel.Instance {
	done, _ := s.snapshot()
	return done
}

// snapshotIssued returns only the issued-side instance (taken after).
func (s *shadowLedger) snapshotIssued() *rel.Instance {
	_, issued := s.snapshot()
	return issued
}

// tupleSet keys an answer list for subset checks.
func tupleSet(ts []rel.Tuple) map[string]bool {
	m := make(map[string]bool, len(ts))
	for _, t := range ts {
		m[t.Key()] = true
	}
	return m
}

func answersToTuples(as []Answer) []rel.Tuple {
	out := make([]rel.Tuple, len(as))
	for i, a := range as {
		out[i] = rel.Tuple(a)
	}
	return out
}

// checkEnvelope asserts lo ⊆ got ⊆ hi.
func checkEnvelope(t *testing.T, what string, got, lo, hi []rel.Tuple) {
	t.Helper()
	gotSet, hiSet := tupleSet(got), tupleSet(hi)
	for _, want := range lo {
		if !gotSet[want.Key()] {
			t.Errorf("%s: answer lost tuple %v completed before the query started (stale cache entry served?)", what, want)
			return
		}
	}
	for _, g := range got {
		if !hiSet[g.Key()] {
			t.Errorf("%s: answer contains %v, which no issued mutation can explain (cache key mixed generations?)", what, g)
			return
		}
	}
}

func TestRandomizedMutationInterleaving(t *testing.T) {
	net, err := Load(`
storage A.r(x) in A:R(x)
storage B.s(x, y) in B:S(x, y)
storage C.t(y) in C:T(y)
storage D.w(x) in D:W(x)
include A:R(x) in U:All(x)
include D:W(x) in U:All(x)
fact A.r("seedA")
fact B.s("seedB", "j0")
fact C.t("j0")
fact D.w("seedD")
`)
	if err != nil {
		t.Fatal(err)
	}
	ledger := newShadowLedger()
	ledger.seed("A.r", rel.Tuple{"seedA"})
	ledger.seed("B.s", rel.Tuple{"seedB", "j0"})
	ledger.seed("C.t", rel.Tuple{"j0"})
	ledger.seed("D.w", rel.Tuple{"seedD"})

	// The tested queries and their rewritings over stored relations,
	// reformulated once up front. The concurrent Extends below only add
	// facts and relations unreachable from these queries, so the
	// rewritings stay valid for the whole run.
	queries := []struct {
		name string
		text string
		rw   lang.UCQ
	}{
		{name: "scan", text: `q(x) :- A:R(x)`},
		{name: "join", text: `q(x, y) :- B:S(x, y), C:T(y)`},
		{name: "union", text: `q(x) :- U:All(x)`},
	}
	for i := range queries {
		ref, err := net.Reformulate(queries[i].text)
		if err != nil {
			t.Fatal(err)
		}
		queries[i].rw = ref.Rewriting
	}

	const mutators, queriers, iters = 4, 4, 30
	var wg sync.WaitGroup
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + m)))
			for i := 0; i < iters; i++ {
				var err error
				switch rng.Intn(6) {
				case 0:
					v := fmt.Sprintf("a%d_%d", m, i)
					err = ledger.around("A.r", rel.Tuple{v}, func() error {
						return net.AddFact("A.r", v)
					})
				case 1:
					x, y := fmt.Sprintf("b%d_%d", m, i), fmt.Sprintf("j%d", rng.Intn(4))
					err = ledger.around("B.s", rel.Tuple{x, y}, func() error {
						return net.AddFact("B.s", x, y)
					})
				case 2:
					// Small domain: duplicate inserts are deliberate (they
					// must not bump any generation nor corrupt the ledger).
					y := fmt.Sprintf("j%d", rng.Intn(4))
					err = ledger.around("C.t", rel.Tuple{y}, func() error {
						return net.AddFact("C.t", y)
					})
				case 3:
					v := fmt.Sprintf("d%d_%d", m, i)
					err = ledger.around("D.w", rel.Tuple{v}, func() error {
						return net.AddFact("D.w", v)
					})
				case 4:
					// Extend carrying a fact: same ledger discipline.
					v := fmt.Sprintf("e%d_%d", m, i)
					err = ledger.around("A.r", rel.Tuple{v}, func() error {
						return net.Extend(fmt.Sprintf("fact A.r(%q)", v))
					})
				default:
					// Extend with a fresh, unreachable peer: churns the spec
					// generation (invalidating everything) without touching
					// the tested rewritings.
					err = net.Extend(fmt.Sprintf(`storage Z%d_%d.z(x) in Z%d_%d:Z(x)`, m, i, m, i))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(m)
	}
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + g)))
			for i := 0; i < iters; i++ {
				qi := queries[rng.Intn(len(queries))]
				done := ledger.snapshotDone()
				ans, err := net.Query(qi.text)
				if err != nil {
					t.Error(err)
					return
				}
				issued := ledger.snapshotIssued()
				lo, err := rel.EvalUCQ(qi.rw, done)
				if err != nil {
					t.Error(err)
					return
				}
				hi, err := rel.EvalUCQ(qi.rw, issued)
				if err != nil {
					t.Error(err)
					return
				}
				checkEnvelope(t, qi.name, answersToTuples(ans), lo, hi)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesced: every answer must now exactly equal the oracle's.
	final := ledger.snapshotIssued()
	for _, qi := range queries {
		want, err := rel.EvalUCQ(qi.rw, final)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := net.Query(qi.text)
		if err != nil {
			t.Fatal(err)
		}
		got := answersToTuples(ans)
		if len(got) != len(want) {
			t.Fatalf("%s: quiesced answer has %d rows, oracle %d", qi.name, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: quiesced answer diverges at %d: %v vs %v", qi.name, i, got[i], want[i])
			}
		}
	}

	// Deterministic epilogue for the stats: a repeated query with no
	// intervening mutation must hit, and the run must have recorded
	// generation-bumping mutations.
	hits0 := net.answerHits.Load()
	if _, err := net.Query(queries[0].text); err != nil {
		t.Fatal(err)
	}
	if hits1 := net.answerHits.Load(); hits1 != hits0+1 {
		t.Fatalf("quiesced repeat query did not hit: hits %d -> %d", hits0, hits1)
	}
	if net.invalidations.Load() == 0 {
		t.Fatal("no invalidations recorded across a mutating run")
	}
}
