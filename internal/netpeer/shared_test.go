package netpeer

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/rel"
)

// onCallFixture serves join_mixed's DC:OnCall shape: three hospital peers
// storing H<k>.doc(s, l) and two fire-district peers storing
// FD<j>.medic(s, l), each relation holding perLoc rows at location "l" and
// as many at "x". u is what reformulating q(d, m) :- DC:OnCall(d, m, "l")
// yields: q(d, m) :- H<k>.doc(d, "l"), FD<j>.medic(m, "l") for all six
// (k, j) pairs, so each of the five fetches turns up in two or three
// disjuncts.
func onCallFixture(tb testing.TB, perLoc int) (srvs []*Server, ex *Executor, u lang.UCQ) {
	tb.Helper()
	ex = NewExecutor()
	tb.Cleanup(func() { ex.Close() })
	serve := func(pred, tag string) {
		var rows []rel.Tuple
		for i := 0; i < perLoc; i++ {
			rows = append(rows, rel.Tuple{fmt.Sprintf("%s%d", tag, i), "l"}, rel.Tuple{fmt.Sprintf("%sx%d", tag, i), "x"})
		}
		srv, addr := startServerH(tb, map[string][]rel.Tuple{pred: rows})
		if err := ex.Discover(addr); err != nil {
			tb.Fatal(err)
		}
		srvs = append(srvs, srv)
	}
	for k := 0; k < 3; k++ {
		serve(fmt.Sprintf("H%d.doc", k), fmt.Sprintf("d%d_", k))
	}
	for j := 0; j < 2; j++ {
		serve(fmt.Sprintf("FD%d.medic", j), fmt.Sprintf("m%d_", j))
	}
	for k := 0; k < 3; k++ {
		for j := 0; j < 2; j++ {
			q, err := parser.ParseQuery(fmt.Sprintf(`q(d, m) :- H%d.doc(d, "l"), FD%d.medic(m, "l")`, k, j))
			if err != nil {
				tb.Fatal(err)
			}
			u.Add(q)
		}
	}
	return srvs, ex, u
}

// serverRequests sums the requests the servers have handled.
func serverRequests(srvs []*Server) uint64 {
	var n uint64
	for _, s := range srvs {
		n += s.requests.Load()
	}
	return n
}

// spansNamed returns every span called name in sp's subtree.
func spansNamed(sp *obs.Span, name string) []*obs.Span {
	var out []*obs.Span
	if sp.Name() == name {
		out = append(out, sp)
	}
	for _, c := range sp.Children() {
		out = append(out, spansNamed(c, name)...)
	}
	return out
}

// TestEvalUCQSharesFetchesAcrossDisjuncts: the six OnCall disjuncts need
// only five distinct fetches, so the union sends five requests on a cold
// cache and five again on a warm one, where every fetch is answered
// unchanged. The other seven atom steps wait for a flight, reuse its rows
// (their atom spans read src=shared with the reused row count), and the
// answer equals the union of the disjuncts evaluated one by one.
func TestEvalUCQSharesFetchesAcrossDisjuncts(t *testing.T) {
	const perLoc = 2
	srvs, ex, u := onCallFixture(t, perLoc)
	var answers [][]rel.Tuple
	for _, run := range []struct {
		name, ownerSrc string
		hits           uint64
	}{
		{"cold", "fetch", 0},
		{"warm", "fragcache", 5},
	} {
		reqs0, hits0, shared0 := serverRequests(srvs), ex.frags.hits.Load(), ex.frags.shared.Load()
		root := obs.NewTracer(4).ForceTrace("query")
		got, err := ex.EvalUCQSpan(u, root)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		if d := serverRequests(srvs) - reqs0; d != 5 {
			t.Fatalf("%s: servers handled %d requests, want 5 (one per distinct fetch)", run.name, d)
		}
		if d := ex.frags.hits.Load() - hits0; d != run.hits {
			t.Fatalf("%s: %d fragment-cache hits, want %d", run.name, d, run.hits)
		}
		if d := ex.frags.shared.Load() - shared0; d != 7 {
			t.Fatalf("%s: %d shared fetches, want 7 (12 atom steps, 5 fetches)", run.name, d)
		}
		srcs := map[string]int{}
		for _, as := range spansNamed(root, "atom") {
			attrs := as.AttrMap()
			srcs[attrs["src"]]++
			if attrs["src"] == "shared" && attrs["fetched"] != fmt.Sprint(perLoc) {
				t.Errorf("%s: shared %s span reused %s rows, want %d", run.name, attrs["pred"], attrs["fetched"], perLoc)
			}
		}
		if srcs[run.ownerSrc] != 5 || srcs["shared"] != 7 || len(srcs) != 2 {
			t.Fatalf("%s: atom span sources %v, want 5 %s and 7 shared:\n%s", run.name, srcs, run.ownerSrc, root.Render())
		}
		answers = append(answers, got)
	}
	var groups [][]rel.Tuple
	for _, q := range u.Disjuncts {
		rows, err := ex.EvalCQ(q)
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, rows)
	}
	want := rel.DistinctSorted(groups...)
	if len(want) != 3*perLoc*2*perLoc {
		t.Fatalf("per-disjunct union has %d rows, want %d", len(want), 3*perLoc*2*perLoc)
	}
	for i, got := range answers {
		if !tuplesEqual(got, want) {
			t.Fatalf("run %d: union answer %v, want the per-disjunct union %v", i, got, want)
		}
	}
}

// TestEvalUCQNoFalseSharing: fetches whose rows differ never share a
// flight. A repeated variable filters rows, so R(x, x) and R(x, y) each
// send a request; so do one atom under two bound-key sets, and one atom
// pattern on two addresses.
func TestEvalUCQNoFalseSharing(t *testing.T) {
	a := map[string][]rel.Tuple{"A.s": {{"z0"}}, "A.k0": {{"k0"}}, "A.k1": {{"k1"}}}
	b := map[string][]rel.Tuple{"B.r": {{"a", "a"}, {"b", "c"}, {"k0", "v0"}, {"k1", "v1"}}}
	for _, tc := range []struct {
		name      string
		disjuncts []string
		shared    uint64
	}{
		{"repeated-variable", []string{`q(x) :- A.s(z), B.r(x, x)`, `q(x) :- A.s(z), B.r(x, y)`}, 1},
		{"bound-key-sets", []string{`q(x, y) :- A.k0(x), B.r(x, y)`, `q(x, y) :- A.k1(x), B.r(x, y)`}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addrA := startServerH(t, a)
			srvB, addrB := startServerH(t, b)
			ex := NewExecutor()
			defer ex.Close()
			for _, addr := range []string{addrA, addrB} {
				if err := ex.Discover(addr); err != nil {
					t.Fatal(err)
				}
			}
			var u lang.UCQ
			for _, src := range tc.disjuncts {
				u.Add(parseCQ(t, src))
			}
			before := srvB.requests.Load()
			got, err := ex.EvalUCQ(u)
			if err != nil {
				t.Fatal(err)
			}
			if d := srvB.requests.Load() - before; d != 2 {
				t.Fatalf("B.r's peer handled %d requests, want 2 (one per disjunct)", d)
			}
			if n := ex.frags.shared.Load(); n != tc.shared {
				t.Fatalf("%d shared fetches, want %d", n, tc.shared)
			}
			want, err := rel.EvalUCQ(u, instanceOf(a, b))
			if err != nil {
				t.Fatal(err)
			}
			if !tuplesEqual(got, want) {
				t.Fatalf("answer %v, want %v", got, want)
			}
		})
	}
	t.Run("addresses", func(t *testing.T) {
		ex := NewExecutor()
		defer ex.Close()
		fl := &flights{}
		atom := lang.NewAtom("R.r", lang.Var("x"))
		for _, v := range []string{"a", "b"} {
			srv, addr := startServerH(t, map[string][]rel.Tuple{"R.r": {{v}}})
			rows, err := ex.fragment(fl, newFragReq(addr, selectionQuery(atom), nil, nil), nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := []rel.Tuple{{v}}; !tuplesEqual(rows, want) {
				t.Fatalf("peer serving %q: rows %v, want %v", v, rows, want)
			}
			if n := srv.requests.Load(); n != 1 {
				t.Fatalf("peer serving %q handled %d requests, want 1", v, n)
			}
		}
		if n := ex.frags.shared.Load(); n != 0 {
			t.Fatalf("%d shared fetches across two addresses, want 0", n)
		}
	})
}

// TestEvalUCQSharedFetchFailure: every disjunct starts with the same fetch
// from a dead peer. That fetch goes out once; every disjunct that started
// fails with its error, the union returns that error, and no goroutine
// outlives the call.
func TestEvalUCQSharedFetchFailure(t *testing.T) {
	ex := NewExecutor()
	defer ex.Close()
	// Six hospital relations over three live peers, each twice the size of
	// the one medic, so the planner fetches FD.medic first in every disjunct
	// and no live peer is ever asked.
	for p := 0; p < 3; p++ {
		facts := map[string][]rel.Tuple{}
		for k := p; k < 6; k += 3 {
			facts[fmt.Sprintf("H%d.doc", k)] = []rel.Tuple{{"d0", "l"}, {"d1", "l"}, {"d2", "x"}, {"d3", "x"}}
		}
		_, addr := startServerH(t, facts)
		if err := ex.Discover(addr); err != nil {
			t.Fatal(err)
		}
	}
	dead, deadAddr := startServerH(t, map[string][]rel.Tuple{"FD.medic": {{"m0", "l"}}})
	if err := ex.Discover(deadAddr); err != nil {
		t.Fatal(err)
	}
	dead.Close()
	var u lang.UCQ
	for k := 0; k < 6; k++ {
		u.Add(parseCQ(t, fmt.Sprintf(`q(d, m) :- FD.medic(m, "l"), H%d.doc(d, "l")`, k)))
	}

	base := runtime.NumGoroutine()
	root := obs.NewTracer(4).ForceTrace("query")
	_, err := ex.EvalUCQSpan(u, root)
	root.End()
	if err == nil {
		t.Fatal("union over a dead peer succeeded")
	}
	cqs := spansNamed(root, "eval.cq")
	if len(cqs) == 0 {
		t.Fatalf("no disjunct started:\n%s", root.Render())
	}
	for _, cs := range cqs {
		if got := cs.AttrMap()["error"]; got != err.Error() {
			t.Errorf("disjunct failed with %q, want the shared fetch's %q", got, err.Error())
		}
	}
	var owners, waiters int
	for _, as := range spansNamed(root, "atom") {
		attrs := as.AttrMap()
		if attrs["pred"] != "FD.medic" {
			t.Errorf("live peer asked for %s after the dead peer's fetch failed", attrs["pred"])
		}
		if attrs["src"] == "shared" {
			waiters++
		} else {
			owners++
		}
	}
	if owners != 1 || owners+waiters != len(cqs) || uint64(waiters) != ex.frags.shared.Load() {
		t.Fatalf("%d disjuncts started: %d fetched the dead peer, %d shared (counter %d); want one fetch serving all:\n%s",
			len(cqs), owners, waiters, ex.frags.shared.Load(), root.Render())
	}
	// EvalUCQ has waited for its workers; yield until they have also exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after the failed union, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}
