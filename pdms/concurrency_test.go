package pdms

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rel"
)

// TestConcurrentQueryAndMutation exercises the Network's lock discipline:
// concurrent queries, fact insertions and extensions must not race (run
// with -race) and queries must always see a consistent specification.
func TestConcurrentQueryAndMutation(t *testing.T) {
	net, err := Load(`
storage A.r(x) in A:R(x)
include A:R(x) in B:S(x)
fact A.r("seed")
`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if i%2 == 0 {
					if err := net.AddFact("A.r", fmt.Sprintf("v%d_%d", i, j)); err != nil {
						errs <- err
						return
					}
				} else {
					rows, err := net.Query(`q(x) :- B:S(x)`)
					if err != nil {
						errs <- err
						return
					}
					if len(rows) == 0 {
						errs <- fmt.Errorf("lost the seed fact")
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Final state: 1 seed + 4 writers × 20 facts.
	rows, err := net.Query(`q(x) :- A:R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 81 {
		t.Fatalf("rows = %d, want 81", len(rows))
	}
}

// TestConcurrentExtend verifies Extend is serialized against queries.
func TestConcurrentExtend(t *testing.T) {
	net, err := Load(`
storage A.r(x) in A:R(x)
fact A.r("1")
`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			_ = net.Extend(fmt.Sprintf(`include A:R(x) in Peer%d:S(x)`, i))
		}(i)
		go func() {
			defer wg.Done()
			_, _ = net.Query(`q(x) :- A:R(x)`)
		}()
	}
	wg.Wait()
	st := net.Stats()
	if st.Inclusions != 4 {
		t.Fatalf("inclusions = %d, want 4", st.Inclusions)
	}
}

// parkedEvaluator is a UCQEvaluator that signals entered when QueryVia
// hands it a rewriting, then parks until release is closed and answers
// rows.
type parkedEvaluator struct {
	entered, release chan struct{}
	rows             []rel.Tuple
}

func (p *parkedEvaluator) EvalUCQSpan(lang.UCQ, *obs.Span) ([]rel.Tuple, error) {
	close(p.entered)
	<-p.release
	return p.rows, nil
}

// TestQueryViaReleasesLockBeforeEvaluating pins QueryVia's lock rule for
// evaluators other than the network's own engine: the read lock is
// released before evaluation, so a slow (remote) evaluation cannot hold up
// AddFact and Extend on the same network.
func TestQueryViaReleasesLockBeforeEvaluating(t *testing.T) {
	net, err := Load(`storage A.r(x) in A:R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	ev := &parkedEvaluator{
		entered: make(chan struct{}),
		release: make(chan struct{}),
		rows:    []rel.Tuple{{"remote"}},
	}
	type result struct {
		rows []Answer
		err  error
	}
	done := make(chan result, 1)
	go func() {
		rows, err := net.QueryVia(`q(x) :- A:R(x)`, ev)
		done <- result{rows, err}
	}()
	const deadline = 10 * time.Second
	select {
	case <-ev.entered:
	case <-time.After(deadline):
		t.Fatal("QueryVia never reached the evaluator")
	}
	mutated := make(chan error, 1)
	go func() {
		if err := net.AddFact("A.r", "1"); err != nil {
			mutated <- err
			return
		}
		mutated <- net.Extend(`storage B.s(x) in A:R(x)`)
	}()
	select {
	case err := <-mutated:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(deadline):
		close(ev.release)
		t.Fatal("AddFact/Extend blocked behind a parked remote evaluation: QueryVia holds the read lock across it")
	}
	close(ev.release)
	select {
	case r := <-done:
		if r.err != nil || !reflect.DeepEqual(r.rows, ev.rows) {
			t.Fatalf("QueryVia = %v, %v; want the evaluator's rows %v", r.rows, r.err, ev.rows)
		}
	case <-time.After(deadline):
		t.Fatal("QueryVia did not return after the evaluator was released")
	}
}
