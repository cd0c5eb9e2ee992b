package netpeer

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/rel"
)

// Randomized mutation interleaving across the wire: mutators AddFact into
// the peer servers while queriers run cross-peer bind-joins through one
// shared Executor, whose fragment cache serves a hit only when the serving
// peer answers the fetch unchanged, and whose unions share one fetch among
// the disjuncts that need it. As in the pdms harness, inserts-only
// mutation plus monotone queries give a linearizability envelope:
//
//	eval(q, completed-before-start) ⊆ answer ⊆ eval(q, issued-by-end)
//
// A lost lower-bound tuple means a fragment was served past its
// generation (stale); an unexplainable tuple means fragments from
// incompatible generations were mixed into one answer beyond what the
// per-atom envelope permits.

// wireLedger is the netpeer copy of the pdms shadow ledger (separate
// package, deliberately tiny).
type wireLedger struct {
	mu     sync.Mutex
	issued map[string][]rel.Tuple
	done   map[string][]rel.Tuple
}

func newWireLedger() *wireLedger {
	return &wireLedger{issued: map[string][]rel.Tuple{}, done: map[string][]rel.Tuple{}}
}

func (s *wireLedger) seed(pred string, t rel.Tuple) {
	s.issued[pred] = append(s.issued[pred], t)
	s.done[pred] = append(s.done[pred], t)
}

func (s *wireLedger) around(pred string, t rel.Tuple, insert func() error) error {
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

func (s *wireLedger) build(issuedSide bool) *rel.Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	src := s.done
	if issuedSide {
		src = s.issued
	}
	ins := rel.NewInstance()
	for pred, ts := range src {
		for _, t := range ts {
			if _, err := ins.Add(pred, t); err != nil {
				panic(err)
			}
		}
	}
	return ins
}

func keySet(ts []rel.Tuple) map[string]bool {
	m := make(map[string]bool, len(ts))
	for _, t := range ts {
		m[t.Key()] = true
	}
	return m
}

func TestExecutorMutationInterleaving(t *testing.T) {
	t.Run("fragment-cache", func(t *testing.T) {
		srv1, addr1 := startServerH(t, map[string][]rel.Tuple{
			"S.a": {{"k0"}},
		})
		srv2, addr2 := startServerH(t, map[string][]rel.Tuple{
			"L.b": {{"k0", "v0"}},
			"L.c": {{"v0"}},
		})
		ledger := newWireLedger()
		ledger.seed("S.a", rel.Tuple{"k0"})
		ledger.seed("L.b", rel.Tuple{"k0", "v0"})
		ledger.seed("L.c", rel.Tuple{"v0"})

		ex := NewExecutor()
		defer ex.Close()
		for _, a := range []string{addr1, addr2} {
			if err := ex.Discover(a); err != nil {
				t.Fatal(err)
			}
		}
		union := func(srcs ...string) lang.UCQ {
			var u lang.UCQ
			for _, src := range srcs {
				q, err := parser.ParseQuery(src)
				if err != nil {
					t.Fatal(err)
				}
				u.Add(q)
			}
			return u
		}
		// "shared" is a union whose disjuncts share atoms, as rewritings of
		// one rule-goal tree do: while the planner puts S.a first, one S.a
		// fetch serves all three and the first two bind L.b under the same
		// key set, so a fetch made for one disjunct answers another.
		queries := []struct {
			name string
			u    lang.UCQ
		}{
			{"join2", union(`q(x, y) :- S.a(x), L.b(x, y)`)},
			{"join3", union(`q(x) :- S.a(x), L.b(x, y), L.c(y)`)},
			{"shared", union(`q(x, y) :- S.a(x), L.b(x, y)`, `q(x, y) :- S.a(x), L.b(x, y), L.c(y)`, `q(x, y) :- S.a(x), L.c(y)`)},
		}

		// Metrics snapshots ride along with the harness: while mutators
		// and queriers interleave, a sampler keeps taking registry
		// snapshots and checks that every counter is monotone across
		// them — a torn or non-atomic read would show up as a value
		// regression (and as a -race report).
		reg := obs.NewRegistry()
		srv1.RegisterMetrics(reg)
		ex.RegisterMetrics(reg)
		stopSnap := make(chan struct{})
		snapDone := make(chan struct{})
		go func() {
			defer close(snapDone)
			prev := map[string]uint64{}
			for {
				select {
				case <-stopSnap:
					return
				default:
				}
				snap := reg.Snapshot()
				for k, v := range snap.Counters {
					if v < prev[k] {
						t.Errorf("counter %s went backwards: %d -> %d", k, prev[k], v)
						return
					}
					prev[k] = v
				}
				time.Sleep(100 * time.Microsecond)
			}
		}()

		const mutators, queriers, iters = 3, 4, 25
		var wg sync.WaitGroup
		for m := 0; m < mutators; m++ {
			wg.Add(1)
			go func(m int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + m)))
				for i := 0; i < iters; i++ {
					var err error
					switch rng.Intn(3) {
					case 0:
						v := fmt.Sprintf("k%d", rng.Intn(6))
						err = ledger.around("S.a", rel.Tuple{v}, func() error {
							return srv1.AddFact("S.a", rel.Tuple{v})
						})
					case 1:
						tu := rel.Tuple{fmt.Sprintf("k%d", rng.Intn(6)), fmt.Sprintf("v%d", rng.Intn(6))}
						err = ledger.around("L.b", tu, func() error {
							return srv2.AddFact("L.b", tu)
						})
					default:
						tu := rel.Tuple{fmt.Sprintf("v%d", rng.Intn(6))}
						err = ledger.around("L.c", tu, func() error {
							return srv2.AddFact("L.c", tu)
						})
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
				rng := rand.New(rand.NewSource(int64(200 + g)))
				for i := 0; i < iters; i++ {
					qi := queries[rng.Intn(len(queries))]
					done := ledger.build(false)
					ans, err := ex.EvalUCQ(qi.u)
					if err != nil {
						t.Error(err)
						return
					}
					issued := ledger.build(true)
					lo, err := rel.EvalUCQ(qi.u, done)
					if err != nil {
						t.Error(err)
						return
					}
					hi, err := rel.EvalUCQ(qi.u, issued)
					if err != nil {
						t.Error(err)
						return
					}
					ansSet, hiSet := keySet(ans), keySet(hi)
					for _, want := range lo {
						if !ansSet[want.Key()] {
							t.Errorf("%s: lost %v completed before the query (stale fragment served?)", qi.name, want)
							return
						}
					}
					for _, got := range ans {
						if !hiSet[got.Key()] {
							t.Errorf("%s: unexplainable tuple %v (mixed-generation fragments?)", qi.name, got)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(stopSnap)
		<-snapDone
		if t.Failed() {
			return
		}

		// Quiesced: exact agreement with the oracle, and a repeated
		// query must be served from fragments.
		final := ledger.build(true)
		for _, qi := range queries {
			want, err := rel.EvalUCQ(qi.u, final)
			if err != nil {
				t.Fatal(err)
			}
			ans, err := ex.EvalUCQ(qi.u)
			if err != nil {
				t.Fatal(err)
			}
			if !tuplesEqual(ans, want) {
				t.Fatalf("%s: quiesced answer diverges: %v vs %v", qi.name, ans, want)
			}
		}
		hits0 := ex.frags.hits.Load()
		if _, err := evalOne(ex, queries[0].u.Disjuncts[0]); err != nil {
			t.Fatal(err)
		}
		if hits1 := ex.frags.hits.Load(); hits1 <= hits0 {
			t.Fatalf("quiesced repeat did not hit the fragment cache: hits %d -> %d", hits0, hits1)
		}
		if ex.frags.shared.Load() == 0 {
			t.Fatal("the shared union's disjuncts never shared a fetch")
		}
	})
}
