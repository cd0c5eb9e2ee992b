package pdms_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/netpeer"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/pdms"
)

// traced runs one query with every query sampled, and returns its answers
// with the rendered trace the network recorded for it — what cmd/peerd
// serves at /debug/traces.
func traced(t *testing.T, net *pdms.Network, run func() ([]pdms.Answer, error)) (string, []pdms.Answer) {
	t.Helper()
	tr := net.Tracer()
	tr.SetSampleEvery(1)
	defer tr.SetSampleEvery(0)
	before := tr.Recorded()
	ans, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Recorded() - before; got != 1 {
		t.Fatalf("query recorded %d traces, want 1", got)
	}
	return tr.Recent(1)[0].Render(), ans
}

// TestExplainLocal renders sampled traces of one local query: mediator
// reformulation (with its rule-goal nodes), planning and evaluation must
// all appear, through the network's own engine and through any other, and
// a repeat through the network's engine is an answer-cache hit.
func TestExplainLocal(t *testing.T) {
	net, err := pdms.Load(`
storage FH.doc(s, l) in FH:Doctor(s, l)
define H:Doctor(s, l) :- FH:Doctor(s, l)
fact FH.doc("d1", "er")
fact FH.doc("d2", "icu")
`)
	if err != nil {
		t.Fatal(err)
	}
	q := `q(s) :- H:Doctor(s, l)`
	query := func() ([]pdms.Answer, error) { return net.Query(q) }
	text, plain := traced(t, net, query)
	if len(plain) != 2 {
		t.Fatalf("Query answers = %v, want 2 rows", plain)
	}
	for _, want := range []string{"trace ", "reformulate", "goal", "eval", "plan"} {
		if !strings.Contains(text, want) {
			t.Fatalf("trace missing %q:\n%s", want, text)
		}
	}
	// The rendered tree mirrors the rule-goal tree: the posed goal node
	// carries its predicate.
	if !strings.Contains(text, "pred=H:Doctor") {
		t.Fatalf("trace missing the goal node's predicate:\n%s", text)
	}

	// Any other evaluator gets the same span: a second engine over the
	// network's data answers like Query and traces its per-disjunct
	// plan/exec spans under "eval".
	eng := engine.New(net.Data())
	text, via := traced(t, net, func() ([]pdms.Answer, error) { return net.QueryVia(q, eng) })
	if !reflect.DeepEqual(via, plain) {
		t.Fatalf("QueryVia(engine) = %v, Query = %v", via, plain)
	}
	cq := strings.Index(text, "eval.cq")
	if cq < 0 || !strings.Contains(text[cq:], "plan") || !strings.Contains(text[cq:], "exec") {
		t.Fatalf("QueryVia(engine) trace lacks eval.cq -> plan/exec:\n%s", text)
	}

	// Only the network's own engine is cached: the repeat is a hit and
	// evaluates nothing.
	text, again := traced(t, net, query)
	if !reflect.DeepEqual(again, plain) || !strings.Contains(text, "answer_cache=hit") || strings.Contains(text, "eval.cq") {
		t.Fatalf("repeated Query answered %v with trace:\n%s", again, text)
	}
}

// TestRegisterMetrics runs a query, then checks one registry snapshot
// carries the network's cache counters, its query-latency histogram and
// the embedded engine's counters under their dotted names.
func TestRegisterMetrics(t *testing.T) {
	net, err := pdms.Load(`
storage FH.doc(s, l) in FH:Doctor(s, l)
define H:Doctor(s, l) :- FH:Doctor(s, l)
fact FH.doc("d1", "er")
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Query(`q(s) :- H:Doctor(s, l)`); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	net.RegisterMetrics(reg)
	snap := reg.Snapshot()
	if snap.Counters["pdms.answer_cache.misses"] == 0 {
		t.Fatalf("pdms.answer_cache.misses not reported: %v", snap.Counters)
	}
	for _, key := range []string{"pdms.answer_cache.hits", "pdms.invalidations",
		"pdms.reform_cache.hits", "pdms.reform_cache.misses", "engine.scans"} {
		if _, ok := snap.Counters[key]; !ok {
			t.Fatalf("%s missing from snapshot: %v", key, snap.Counters)
		}
	}
	h, ok := snap.Histograms["pdms.query_seconds"]
	if !ok || h.Count == 0 {
		t.Fatalf("pdms.query_seconds histogram missing or empty: %+v", snap.Histograms)
	}
}

// TestNewEmptyNetwork covers the programmatic constructor and the spec /
// data accessors: an empty network extends into a queryable one.
func TestNewEmptyNetwork(t *testing.T) {
	net := pdms.New(pdms.Options{})
	if net.Spec() == nil || net.Data() == nil {
		t.Fatal("empty network has nil spec or data")
	}
	if err := net.Extend(`
storage FH.doc(s, l) in FH:Doctor(s, l)
fact FH.doc("d1", "er")
`); err != nil {
		t.Fatal(err)
	}
	ans, err := net.Query(`q(s) :- FH:Doctor(s, l)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 {
		t.Fatalf("answers = %v, want 1 row", ans)
	}
	if got := net.Data().Relation("FH.doc"); got == nil || len(got.Tuples()) != 1 {
		t.Fatalf("Data() does not expose the loaded relation")
	}
}

// TestExplainViaNetworkExecutor stitches a cross-peer trace end to end:
// the rendered tree must contain spans adopted from both serving peers,
// labeled with their addresses.
func TestExplainViaNetworkExecutor(t *testing.T) {
	net, err := pdms.Load(`
storage H1.doc(s, l) in H:Doctor(s, l)
storage FD.medic(s, l) in FS:Medic(s, l)
define DC:OnCall(d, m, s) :- H:Doctor(d, s), FS:Medic(m, s)
`)
	if err != nil {
		t.Fatal(err)
	}
	startPeer := func(facts map[string][]rel.Tuple) string {
		data := rel.NewInstance()
		for pred, ts := range facts {
			for _, tu := range ts {
				if _, err := data.Add(pred, tu); err != nil {
					t.Fatal(err)
				}
			}
		}
		srv := netpeer.NewServer(data)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return addr
	}
	addr1 := startPeer(map[string][]rel.Tuple{"H1.doc": {{"d07", "day"}, {"d12", "night"}}})
	addr2 := startPeer(map[string][]rel.Tuple{"FD.medic": {{"m1", "day"}}})
	ex := netpeer.NewExecutor()
	defer ex.Close()
	for _, a := range []string{addr1, addr2} {
		if err := ex.Discover(a); err != nil {
			t.Fatal(err)
		}
	}

	text, rows := traced(t, net, func() ([]pdms.Answer, error) {
		return net.QueryVia(`q(d, m) :- DC:OnCall(d, m, "day")`, ex)
	})
	if len(rows) != 1 || rows[0][1] != "m1" {
		t.Fatalf("rows = %v", rows)
	}
	for _, want := range []string{
		"reformulate",
		"atom",
		"[peer " + addr1 + "]",
		"[peer " + addr2 + "]",
		"serve.",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("stitched trace missing %q:\n%s", want, text)
		}
	}
}
