package netpeer

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/rel"
	"repro/internal/wire"
)

// TestPlanOrderUsesDistinctAndFallsBack pins the two halves of the Distinct
// piggyback contract on the executor's join-order heuristic. With per-column
// distinct estimates, a bound position's selectivity is 1/distinct — so a
// low-distinct column stops masquerading as selective and the order flips.
// Without them (a peer predating the extension), planOrder must degrade to
// exactly the order engine.OrderBodyStats gives cardinalities alone.
func TestPlanOrderUsesDistinctAndFallsBack(t *testing.T) {
	q := lang.CQ{
		Head: lang.Atom{Pred: "q", Args: []lang.Term{lang.Var("x"), lang.Var("y")}},
		Body: []lang.Atom{
			{Pred: "A.r", Args: []lang.Term{lang.Const("c"), lang.Var("x")}},
			{Pred: "B.s", Args: []lang.Term{lang.Var("x"), lang.Var("y")}},
		},
	}
	e := NewExecutor()
	defer e.Close()
	e.card["A.r"], e.card["B.s"] = 100, 40

	// Cardinality only: A.r's constant earns the uniform 1/8 discount
	// (cost ~12.6 < 41), so A.r leads — and the order must equal the shared
	// cardinality-only cost model's.
	got := e.planOrder(q)
	want := engine.OrderBodyStats(q.Body, func(pred string) engine.ColStats {
		return engine.ColStats{Card: e.card[pred]}
	})
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("fallback order %v, cardinality-only model says %v", got, want)
	}
	if got[0] != 0 {
		t.Fatalf("cardinality-only order should lead with A.r: %v", got)
	}

	// A piggybacked distinct estimate of 2 for A.r's constant column makes
	// the selection nearly worthless (cost ~50 > 41): B.s must lead now.
	e.dist["A.r"] = []float64{2, 100}
	if got := e.planOrder(q); got[0] != 1 {
		t.Fatalf("distinct-aware order should lead with B.s: %v", got)
	}
}

// TestDistinctOnlyOnFoldedReplies: the per-column distinct estimates cost
// a sketch merge per relation, so only the replies the executor folds them
// from carry them — a bind reply does, add and unchanged replies do not.
func TestDistinctOnlyOnFoldedReplies(t *testing.T) {
	addr := startServer(t, map[string][]rel.Tuple{"A.r": {{"1", "x"}, {"2", "x"}}})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wa := wire.FromAtom(lang.NewAtom("A.r", lang.Var("k"), lang.Var("v")))
	gen := uint64(3) // the generation after the add below
	for _, tc := range []struct {
		req      wire.Request
		distinct bool
	}{
		{wire.Request{Op: "add", Pred: "A.r", Rows: [][]string{{"3", "y"}}}, false},
		{wire.Request{Op: "scan", Pred: "A.r", IfGen: &gen}, false},
		{wire.Request{Op: "bind", Atom: &wa, BindCols: []int{0}, BindRows: [][]string{{"1"}}}, true},
	} {
		resp, err := c.roundTrip(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.req.Op, err)
		}
		if len(resp.Gens) != 1 {
			t.Fatalf("%s reply lost its generation: %+v", tc.req.Op, resp)
		}
		if tc.req.IfGen != nil && !resp.Unchanged {
			t.Fatalf("scan with the current generation %d was not answered unchanged: %+v", gen, resp)
		}
		if got := len(resp.Distinct) == 1 && len(resp.Distinct[0]) == 2; got != tc.distinct {
			t.Fatalf("%s reply distinct = %v, want present=%v", tc.req.Op, resp.Distinct, tc.distinct)
		}
	}
}

// TestDiscoverSeedsDistinctEstimates boots a real server and checks Discover
// lands per-column distinct estimates the plan can use, refreshed from the
// catalog op's piggyback.
func TestDiscoverSeedsDistinctEstimates(t *testing.T) {
	addr := startServer(t, map[string][]rel.Tuple{
		"A.r": {{"1", "x"}, {"2", "x"}, {"3", "x"}},
	})
	e := NewExecutor()
	defer e.Close()
	if err := e.Discover(addr); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	d := e.dist["A.r"]
	e.mu.Unlock()
	if len(d) != 2 {
		t.Fatalf("discover recorded no distinct estimates: %v", d)
	}
	// HLL estimates are approximate but 3-vs-1 on tiny sets is exact.
	if d[0] < 2.5 || d[0] > 3.5 || d[1] < 0.5 || d[1] > 1.5 {
		t.Fatalf("distinct estimates off: %v (want ≈[3 1])", d)
	}
}
