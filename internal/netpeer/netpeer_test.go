package netpeer

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/rel"
)

// startServer spins up a peer server over the given facts and returns its
// address and a cleanup-registered server.
func startServer(t testing.TB, facts map[string][]rel.Tuple) string {
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
	return addr
}

func TestClientCatalogScanEval(t *testing.T) {
	addr := startServer(t, map[string][]rel.Tuple{
		"FH.doc": {{"d1", "er"}, {"d2", "icu"}},
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cards, err := c.CatalogStats()
	if err != nil || len(cards) != 1 || cards["FH.doc"] != 2 {
		t.Fatalf("catalog stats = %v err = %v", cards, err)
	}
	rows, err := c.Scan("FH.doc")
	if err != nil || len(rows) != 2 {
		t.Fatalf("scan = %v err = %v", rows, err)
	}
	if rows, err = c.Scan("absent"); err != nil || len(rows) != 0 {
		t.Fatalf("scan absent = %v err = %v", rows, err)
	}

	q, err := parser.ParseQuery(`q(s) :- FH.doc(s, "er")`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err = c.Eval(q)
	if err != nil || len(rows) != 1 || rows[0][0] != "d1" {
		t.Fatalf("eval = %v err = %v", rows, err)
	}
}

func TestClientRemoteError(t *testing.T) {
	addr := startServer(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Unsafe query must surface the remote error.
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x")),
		Body: []lang.Atom{lang.NewAtom("R", lang.Var("y"))},
	}
	if _, err := c.Eval(q); err == nil || !strings.Contains(err.Error(), "remote") {
		t.Fatalf("err = %v", err)
	}
	// The connection stays usable after an error response.
	if _, err := c.CatalogStats(); err != nil {
		t.Fatalf("connection broken after error: %v", err)
	}
}

func TestServerAddFactVisible(t *testing.T) {
	addr := startServer(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Reach the server through a second connection to add data.
	// (AddFact is exercised via the scaled example; here we verify scans
	// observe live inserts through the shared instance.)
	rows, err := c.Scan("live.r")
	if err != nil || len(rows) != 0 {
		t.Fatalf("initial scan = %v err = %v", rows, err)
	}
}

func TestExecutorPushdownSinglePeer(t *testing.T) {
	addr := startServer(t, map[string][]rel.Tuple{
		"A.r": {{"1", "2"}, {"2", "3"}},
		"A.s": {{"2"}},
	})
	ex := NewExecutor()
	defer ex.Close()
	if err := ex.Discover(addr); err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery(`q(x) :- A.r(x, y), A.s(y)`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "1" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestExecutorCrossPeerJoin(t *testing.T) {
	addr1 := startServer(t, map[string][]rel.Tuple{
		"P1.edge": {{"a", "b"}, {"b", "c"}, {"x", "y"}},
	})
	addr2 := startServer(t, map[string][]rel.Tuple{
		"P2.edge": {{"b", "z"}, {"c", "w"}},
	})
	ex := NewExecutor()
	defer ex.Close()
	if err := ex.Discover(addr1); err != nil {
		t.Fatal(err)
	}
	if err := ex.Discover(addr2); err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery(`q(x, z) :- P1.edge(x, y), P2.edge(y, z)`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestExecutorSelectionPushdown(t *testing.T) {
	addr1 := startServer(t, map[string][]rel.Tuple{
		"P1.r": {{"k", "1"}, {"k", "2"}, {"other", "3"}},
	})
	addr2 := startServer(t, map[string][]rel.Tuple{
		"P2.s": {{"1", "x"}, {"2", "y"}, {"3", "z"}},
	})
	ex := NewExecutor()
	defer ex.Close()
	for _, a := range []string{addr1, addr2} {
		if err := ex.Discover(a); err != nil {
			t.Fatal(err)
		}
	}
	q, err := parser.ParseQuery(`q(v, w) :- P1.r("k", v), P2.s(v, w)`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestExecutorNoRoute(t *testing.T) {
	ex := NewExecutor()
	defer ex.Close()
	q, _ := parser.ParseQuery(`q(x) :- Nowhere.r(x)`)
	if _, err := ex.EvalCQ(q); err == nil || !strings.Contains(err.Error(), "no route") {
		t.Fatalf("err = %v", err)
	}
}

// TestDiscoverRefusesSecondOwner: a peer advertising a relation that
// another peer already serves is refused with an error naming the relation
// and both peers, and none of its catalog is routed, so a join keeps
// reading the first owner's rows. Re-discovering the first owner refreshes
// its estimates, and Route still overrides.
func TestDiscoverRefusesSecondOwner(t *testing.T) {
	srvA, addrA := startServerH(t, map[string][]rel.Tuple{"A.r": {{"1"}, {"2"}}, "B.s": {{"1", "a"}, {"2", "b"}}})
	_, addrB := startServerH(t, map[string][]rel.Tuple{"B.s": {{"1", "z"}}, "C.t": {{"1"}}})
	ex := NewExecutor()
	defer ex.Close()
	if err := ex.Discover(addrA); err != nil {
		t.Fatal(err)
	}
	err := ex.Discover(addrB)
	if err == nil {
		t.Fatal("a second owner of B.s was routed without error")
	}
	for _, want := range []string{"B.s", addrA, addrB} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
	if r, ok := routeOf(ex, "C.t"); ok {
		t.Fatalf("the refused catalog's C.t was routed: %+v", r)
	}
	got, err := ex.EvalCQ(parseCQ(t, `q(x, y) :- A.r(x), B.s(x, y)`))
	if err != nil {
		t.Fatal(err)
	}
	if want := []rel.Tuple{{"1", "a"}, {"2", "b"}}; !tuplesEqual(got, want) {
		t.Fatalf("join answered %v, want the first owner's %v", got, want)
	}

	if err := srvA.AddFact("A.r", rel.Tuple{"3"}); err != nil {
		t.Fatal(err)
	}
	if err := ex.Discover(addrA); err != nil {
		t.Fatalf("re-discovering the same peer: %v", err)
	}
	if r, _ := routeOf(ex, "A.r"); r.addr != addrA || r.card != 3 {
		t.Fatalf("A.r route after re-discovery = %+v, want card 3 at %s", r, addrA)
	}
	ex.Route("B.s", addrB)
	if r, _ := routeOf(ex, "B.s"); r.addr != addrB {
		t.Fatalf("Route did not override B.s: %+v", r)
	}
}

// TestEvalUCQFailsFast: once a disjunct has failed the union is an error, so
// the disjuncts not yet handed to a worker must never start — here the
// unrouted disjunct 0 fails at once, and of the 40 routed ones (one request
// each) only those already in flight may reach the server.
func TestEvalUCQFailsFast(t *testing.T) {
	srv, addr := startServerH(t, map[string][]rel.Tuple{"A.r": {{"a"}}})
	ex := NewExecutor()
	defer ex.Close()
	if err := ex.Discover(addr); err != nil {
		t.Fatal(err)
	}
	unrouted, err := parser.ParseQuery(`q(x) :- Nowhere.r(x)`)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := parser.ParseQuery(`q(x) :- A.r(x)`)
	if err != nil {
		t.Fatal(err)
	}
	u := lang.UCQ{Disjuncts: []lang.CQ{unrouted}}
	for i := 0; i < 40; i++ {
		u.Add(routed)
	}
	before := srv.requests.Load()
	if _, err := ex.EvalUCQ(u); err == nil || !strings.Contains(err.Error(), "no route") {
		t.Fatalf("err = %v, want the no-route error of disjunct 0", err)
	}
	if got := srv.requests.Load() - before; got > engine.MaxUnionFanout+4 {
		t.Fatalf("server saw %d requests after disjunct 0 failed; want at most the ~%d in flight", got, engine.MaxUnionFanout)
	}
}

func TestEndToEndReformulateThenDistribute(t *testing.T) {
	// The full pipeline: a PDMS spec reformulates a peer query into a UCQ
	// over stored relations that live on two different peer servers; the
	// executor answers it across the network.
	spec := `
storage H1.doc(s, l) in H:Doctor(s, l)
storage H2.doc(s, l) in H:Doctor(s, l)
`
	res, err := parser.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.New(res.PDMS, core.Options{KeepRedundant: true})
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery(`q(s) :- H:Doctor(s, l)`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Reformulate(q)
	if err != nil {
		t.Fatal(err)
	}
	if out.UCQ.Len() != 2 {
		t.Fatalf("UCQ = %v", out.UCQ)
	}

	addr1 := startServer(t, map[string][]rel.Tuple{"H1.doc": {{"d1", "er"}}})
	addr2 := startServer(t, map[string][]rel.Tuple{"H2.doc": {{"d2", "icu"}}})
	ex := NewExecutor()
	defer ex.Close()
	for _, a := range []string{addr1, addr2} {
		if err := ex.Discover(a); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := ex.EvalUCQ(out.UCQ)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestExecutorRepeatedAtomSharedFetch(t *testing.T) {
	addr1 := startServer(t, map[string][]rel.Tuple{
		"P1.e": {{"a", "b"}, {"b", "c"}},
	})
	addr2 := startServer(t, map[string][]rel.Tuple{
		"P2.x": {{"a"}},
	})
	ex := NewExecutor()
	defer ex.Close()
	for _, a := range []string{addr1, addr2} {
		if err := ex.Discover(a); err != nil {
			t.Fatal(err)
		}
	}
	// P1.e appears twice (2-hop path), crossing peers with P2.x.
	q, err := parser.ParseQuery(`q(x, z) :- P2.x(x), P1.e(x, y), P1.e(y, z)`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][1] != "c" {
		t.Fatalf("rows = %v", rows)
	}
}

// TestNULValuesRoundTrip: values may contain NUL (PROTOCOL.md), so two rows
// that only a NUL-joined key would confuse must both be stored by an add and
// come back from a scan and from an eval; they share the relation's one
// tuple set.
func TestNULValuesRoundTrip(t *testing.T) {
	addr := startServer(t, map[string][]rel.Tuple{"A.r": {{"z", "z", "z"}}})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, b := rel.Tuple{"k", "a\x00b", "c"}, rel.Tuple{"k", "a", "b\x00c"}
	if _, err := c.Add("A.r", [][]string{a, b}); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Scan("A.r")
	if err != nil {
		t.Fatal(err)
	}
	got := rel.DistinctSorted(rows)
	if len(got) != 3 || !got[0].Equal(b) || !got[1].Equal(a) {
		t.Fatalf("scan = %q, want %q, %q and the seed row", rows, a, b)
	}
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("y"), lang.Var("z")),
		Body: []lang.Atom{lang.NewAtom("A.r", lang.Const("k"), lang.Var("y"), lang.Var("z"))},
	}
	ans, err := c.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 || !ans[0].Equal(b[1:]) || !ans[1].Equal(a[1:]) {
		t.Fatalf("eval = %q, want [%q %q]", ans, b[1:], a[1:])
	}
}
