package netpeer

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/rel"
)

func parseCQ(t *testing.T, src string) lang.CQ {
	t.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// subtreeHasRemote reports whether sp's subtree contains a span adopted
// from peer addr whose name has the given prefix.
func subtreeHasRemote(sp *obs.Span, addr, namePrefix string) bool {
	if sp.Remote() == addr && strings.HasPrefix(sp.Name(), namePrefix) {
		return true
	}
	for _, c := range sp.Children() {
		if subtreeHasRemote(c, addr, namePrefix) {
			return true
		}
	}
	return false
}

// TestTracePropagationThreePeerBindJoin runs a traced bind-join chain
// across three peers and checks the stitched tree: one "atom" span per
// body atom, each holding the serving peer's remote spans — adopted with
// the peer's address and parented under the local span that issued the
// requests (the atom span for fetches, its "bind.batch" children for
// bind batches).
func TestTracePropagationThreePeerBindJoin(t *testing.T) {
	_, addr1 := startServerH(t, map[string][]rel.Tuple{"A.r": {{"1", "a"}, {"2", "b"}}})
	_, addr2 := startServerH(t, map[string][]rel.Tuple{"B.s": {{"a", "x"}, {"b", "y"}}})
	_, addr3 := startServerH(t, map[string][]rel.Tuple{"C.t": {{"x"}}})
	ex := NewExecutor()
	defer ex.Close()
	for _, a := range []string{addr1, addr2, addr3} {
		if err := ex.Discover(a); err != nil {
			t.Fatal(err)
		}
	}
	u := lang.UCQ{Disjuncts: []lang.CQ{parseCQ(t, `q(u) :- A.r(u, v), B.s(v, w), C.t(w)`)}}

	tr := obs.NewTracer(4)
	root := tr.ForceTrace("query")
	rows, err := ex.EvalUCQSpan(u, root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if want := []rel.Tuple{{"1"}}; !tuplesEqual(rows, want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}

	cq := root.Find("eval.cq")
	if cq == nil {
		t.Fatalf("no eval.cq span:\n%s", root.Render())
	}
	var atoms []*obs.Span
	for _, c := range cq.Children() {
		if c.Name() == "atom" {
			atoms = append(atoms, c)
		}
	}
	if len(atoms) != 3 {
		t.Fatalf("got %d atom spans, want 3:\n%s", len(atoms), root.Render())
	}
	peerOf := map[string]string{"A.r": addr1, "B.s": addr2, "C.t": addr3}
	seen := map[string]bool{}
	for _, as := range atoms {
		attrs := as.AttrMap()
		pred := attrs["pred"]
		want, ok := peerOf[pred]
		if !ok {
			t.Fatalf("atom span for unknown pred %q", pred)
		}
		seen[pred] = true
		if attrs["addr"] != want {
			t.Errorf("atom %s: addr = %q, want %q", pred, attrs["addr"], want)
		}
		if !subtreeHasRemote(as, want, "serve.") {
			t.Errorf("atom %s: no remote span from %s:\n%s", pred, want, root.Render())
		}
		// A bind-sourced atom parents the peer's serve.bind spans under
		// its per-batch spans, and the server-side "bind" child (with the
		// probe detail) rides inside those.
		if attrs["src"] == "bind" {
			bb := as.Find("bind.batch")
			if bb == nil {
				t.Errorf("atom %s: bind-sourced but no bind.batch span:\n%s", pred, root.Render())
				continue
			}
			if !subtreeHasRemote(bb, want, "serve.bind") {
				t.Errorf("atom %s: serve.bind not parented under bind.batch:\n%s", pred, root.Render())
			}
			if inner := bb.Find("bind"); inner == nil || inner.AttrMap()["pred"] != pred {
				t.Errorf("atom %s: server-side bind span missing or mislabeled:\n%s", pred, root.Render())
			}
		}
	}
	for pred := range peerOf {
		if !seen[pred] {
			t.Errorf("no atom span for %s:\n%s", pred, root.Render())
		}
	}
	if tr.Recorded() != 1 {
		t.Fatalf("Recorded = %d, want 1", tr.Recorded())
	}
}

// TestTracePushdownAdoptsRemote checks the single-peer full push-down
// path: the pushdown span adopts the serving peer's serve.eval tree.
func TestTracePushdownAdoptsRemote(t *testing.T) {
	_, addr := startServerH(t, map[string][]rel.Tuple{"A.r": {{"1", "a"}}})
	ex := NewExecutor()
	defer ex.Close()
	if err := ex.Discover(addr); err != nil {
		t.Fatal(err)
	}
	u := lang.UCQ{Disjuncts: []lang.CQ{parseCQ(t, `q(x) :- A.r(x, y)`)}}
	tr := obs.NewTracer(4)
	root := tr.ForceTrace("query")
	if _, err := ex.EvalUCQSpan(u, root); err != nil {
		t.Fatal(err)
	}
	root.End()
	ps := root.Find("pushdown")
	if ps == nil {
		t.Fatalf("no pushdown span:\n%s", root.Render())
	}
	if ps.AttrMap()["addr"] != addr {
		t.Errorf("pushdown addr = %q, want %q", ps.AttrMap()["addr"], addr)
	}
	if !subtreeHasRemote(ps, addr, "serve.eval") {
		t.Errorf("pushdown did not adopt serve.eval from %s:\n%s", addr, root.Render())
	}
}

// TestUntracedEvalMatchesTraced checks that a nil span changes nothing
// about the answer and produces no trace state.
func TestUntracedEvalMatchesTraced(t *testing.T) {
	_, addr1 := startServerH(t, map[string][]rel.Tuple{"A.r": {{"1", "a"}, {"2", "b"}}})
	_, addr2 := startServerH(t, map[string][]rel.Tuple{"B.s": {{"a", "x"}, {"b", "y"}}})
	mk := func() *Executor {
		ex := NewExecutor()
		t.Cleanup(func() { ex.Close() })
		for _, a := range []string{addr1, addr2} {
			if err := ex.Discover(a); err != nil {
				t.Fatal(err)
			}
		}
		return ex
	}
	u := lang.UCQ{Disjuncts: []lang.CQ{parseCQ(t, `q(x, z) :- A.r(x, y), B.s(y, z)`)}}

	tr := obs.NewTracer(4)
	root := tr.ForceTrace("query")
	traced, err := mk().EvalUCQSpan(u, root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := mk().EvalUCQSpan(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tuplesEqual(traced, plain) {
		t.Fatalf("traced answer %v != untraced %v", traced, plain)
	}
	// With sampling off, StartTrace yields nil roots and the whole span
	// path degrades to nil checks.
	off := obs.NewTracer(4)
	if sp := off.StartTrace("query"); sp != nil {
		t.Fatal("sampling-off tracer returned a span")
	}
}

// TestStatsReadWhileServing hammers the registry's snapshots concurrently
// with live cross-peer queries. Counters must be readable without torn
// values (monotone across snapshots) and the whole test must pass under
// -race.
func TestStatsReadWhileServing(t *testing.T) {
	srv1, addr1 := startServerH(t, map[string][]rel.Tuple{"A.r": {{"1", "a"}, {"2", "b"}}})
	_, addr2 := startServerH(t, map[string][]rel.Tuple{"B.s": {{"a", "x"}, {"b", "y"}}})
	ex := NewExecutor()
	defer ex.Close()
	for _, a := range []string{addr1, addr2} {
		if err := ex.Discover(a); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	srv1.RegisterMetrics(reg)
	ex.RegisterMetrics(reg)

	q := parseCQ(t, `q(x, z) :- A.r(x, y), B.s(y, z)`)
	const queriers, iters, readers, snaps = 4, 40, 3, 200
	var wg sync.WaitGroup
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := evalOne(ex, q); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := map[string]uint64{}
			for i := 0; i < snaps; i++ {
				snap := reg.Snapshot()
				for k, v := range snap.Counters {
					if v < prev[k] {
						t.Errorf("counter %s went backwards: %d -> %d", k, prev[k], v)
						return
					}
					prev[k] = v
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	snap := reg.Snapshot()
	if snap.Counters["server.requests"] == 0 {
		t.Fatal("server.requests stayed zero under load")
	}
	if snap.Counters["wire.requests"] == 0 {
		t.Fatal("wire.requests stayed zero under load")
	}
	// The queries share one shape and the estimates never change, so only
	// the queriers whose first lookups miss together compile its plan.
	if n := snap.Counters["engine.bindjoin_compiles"]; n < 1 || n > queriers {
		t.Fatalf("engine.bindjoin_compiles = %d, want 1 to %d: one per querier whose first lookup missed", n, queriers)
	}
}
