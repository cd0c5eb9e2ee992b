package netpeer

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/rel"
)

// tuplesEqual compares two sorted answer sets.
func tuplesEqual(a, b []rel.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestBindJoinFetchesFewerRows is the headline acceptance check: on a
// skewed cross-peer join (small bound side, large remote side), bind-join
// must ship a small fraction of the big relation — at least 10x fewer rows
// than its cardinality, which any whole-relation fetch would move — while
// returning exactly the oracle's answers.
func TestBindJoinFetchesFewerRows(t *testing.T) {
	const big = 2000
	small := map[string][]rel.Tuple{"S.small": nil}
	large := map[string][]rel.Tuple{"L.big": nil}
	oracle := rel.NewInstance()
	for i := 0; i < 5; i++ {
		tu := rel.Tuple{fmt.Sprintf("k%d", i)}
		small["S.small"] = append(small["S.small"], tu)
		oracle.MustAdd("S.small", tu...)
	}
	for i := 0; i < big; i++ {
		tu := rel.Tuple{fmt.Sprintf("k%d", i%1000), fmt.Sprintf("p%d", i)}
		large["L.big"] = append(large["L.big"], tu)
		oracle.MustAdd("L.big", tu...)
	}
	addr1 := startServer(t, small)
	addr2 := startServer(t, large)

	q, err := parser.ParseQuery(`q(x, y) :- S.small(x), L.big(x, y)`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.New(oracle).EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 10 {
		t.Fatalf("oracle rows = %d", len(want))
	}

	ex := NewExecutor()
	defer ex.Close()
	for _, a := range []string{addr1, addr2} {
		if err := ex.Discover(a); err != nil {
			t.Fatal(err)
		}
	}
	before := ex.counters.rowsFetched.Load()
	rows, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if !tuplesEqual(rows, want) {
		t.Fatalf("bind-join answers diverge: got %v want %v", rows, want)
	}
	if fetched := ex.counters.rowsFetched.Load() - before; fetched*10 > big {
		t.Fatalf("bind-join fetched %d rows of a %d-row relation; want >= 10x fewer", fetched, big)
	}
}

// TestSelectionFetchAppliesRepeatedVariables: the first atom in plan
// order, A.r(x, x), is fetched without keys as the push-down of its
// selection, so the peer applies the repeated variable and only A.r's
// three self-agreeing rows cross the wire, not all ten.
func TestSelectionFetchAppliesRepeatedVariables(t *testing.T) {
	a := map[string][]rel.Tuple{"A.r": nil}
	b := map[string][]rel.Tuple{"B.s": nil}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		if i < 3 {
			a["A.r"] = append(a["A.r"], rel.Tuple{k, k})
		} else {
			a["A.r"] = append(a["A.r"], rel.Tuple{k, fmt.Sprintf("x%d", i)})
		}
	}
	for i := 0; i < 100; i++ {
		b["B.s"] = append(b["B.s"], rel.Tuple{fmt.Sprintf("k%d", i%10), fmt.Sprintf("p%d", i)})
	}
	q := parseCQ(t, `q(x, y) :- A.r(x, x), B.s(x, y)`)
	want, err := engine.New(instanceOf(a, b)).EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor()
	defer ex.Close()
	for _, addr := range []string{startServer(t, a), startServer(t, b)} {
		if err := ex.Discover(addr); err != nil {
			t.Fatal(err)
		}
	}
	if order := ex.planOrder(q); order[0] != 0 {
		t.Fatalf("plan order %v, want A.r first", order)
	}
	got, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if !tuplesEqual(got, want) || len(want) != 30 {
		t.Fatalf("answer %v, want the oracle's 30 rows %v", got, want)
	}
	// Three rows of A.r, then B.s's ten rows for each of their three keys.
	if fetched := ex.counters.rowsFetched.Load(); fetched != 3+30 {
		t.Fatalf("wire.rows_fetched = %d, want 33: A.r(x, x) shipped rows that disagree with themselves", fetched)
	}
}

// TestFetchNameCollisionRegression pins that two atoms on the same
// predicate whose selection patterns would collide under an unescaped
// "pred|pos=const..." encoding — R with constant "x|1=y" at position 0
// versus constants "x","y" at positions 0 and 1 — never share a fetch:
// fragment-cache keys length-prefix every constant. With an aliasing key
// the second atom silently reuses the first atom's (differently selected)
// rows and the answer goes missing.
func TestFetchNameCollisionRegression(t *testing.T) {
	addr1 := startServer(t, map[string][]rel.Tuple{
		"C.r": {{"x|1=y", "A"}, {"x", "y"}},
	})
	addr2 := startServer(t, map[string][]rel.Tuple{
		"D.s": {{"ok"}},
	})
	q, err := parser.ParseQuery(`q(v, w) :- C.r("x|1=y", v), C.r("x", "y"), D.s(w)`)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor()
	defer ex.Close()
	for _, a := range []string{addr1, addr2} {
		if err := ex.Discover(a); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "A" || rows[0][1] != "ok" {
		t.Fatalf("rows = %v, want [[A ok]]", rows)
	}
}

// TestBindJoinEmptyBoundSideShortCircuits checks the early exit: when the
// partial join is empty no keys exist to ship, the remaining atoms are
// never fetched, and the answer is empty.
func TestBindJoinEmptyBoundSideShortCircuits(t *testing.T) {
	addr1 := startServer(t, map[string][]rel.Tuple{
		"E.small": {{"only"}},
	})
	srv2data := map[string][]rel.Tuple{"F.big": nil}
	for i := 0; i < 100; i++ {
		srv2data["F.big"] = append(srv2data["F.big"], rel.Tuple{fmt.Sprintf("k%d", i), "v"})
	}
	addr2 := startServer(t, srv2data)
	ex := NewExecutor()
	defer ex.Close()
	for _, a := range []string{addr1, addr2} {
		if err := ex.Discover(a); err != nil {
			t.Fatal(err)
		}
	}
	// "nothing" never matches E.small, so the bound side is empty.
	q, err := parser.ParseQuery(`q(x, y) :- E.small(x), F.big(y, x), x = "nothing"`)
	if err != nil {
		t.Fatal(err)
	}
	before := ex.counters.rowsFetched.Load()
	rows, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
	// Only E.small's single row may have crossed the wire.
	if got := ex.counters.rowsFetched.Load() - before; got > 1 {
		t.Fatalf("fetched %d rows; the big side should never be touched", got)
	}
}

// TestBindJoinRepeatedVarAndConsts exercises bind fetches for atoms mixing
// pushed constants, repeated variables, and multiple bound positions.
func TestBindJoinRepeatedVarAndConsts(t *testing.T) {
	addr1 := startServer(t, map[string][]rel.Tuple{
		"G.a": {{"1", "2"}, {"2", "2"}, {"3", "9"}},
	})
	addr2 := startServer(t, map[string][]rel.Tuple{
		"G.b": {{"2", "2", "t"}, {"2", "5", "t"}, {"9", "9", "t"}, {"2", "2", "f"}},
	})
	oracle := rel.NewInstance()
	oracle.MustAdd("G.a", "1", "2")
	oracle.MustAdd("G.a", "2", "2")
	oracle.MustAdd("G.a", "3", "9")
	oracle.MustAdd("G.b", "2", "2", "t")
	oracle.MustAdd("G.b", "2", "5", "t")
	oracle.MustAdd("G.b", "9", "9", "t")
	oracle.MustAdd("G.b", "2", "2", "f")
	ex := NewExecutor()
	defer ex.Close()
	for _, a := range []string{addr1, addr2} {
		if err := ex.Discover(a); err != nil {
			t.Fatal(err)
		}
	}
	// y appears twice in G.b (diagonal) and "t" is pushed as a constant.
	q, err := parser.ParseQuery(`q(x, y) :- G.a(x, y), G.b(y, y, "t")`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.New(oracle).EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if !tuplesEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// TestBindJoinDifferentialRandomized pins bind-join answers to the
// single-instance engine oracle across randomized data partitions,
// cross-peer CQs and UCQs (including constants, comparisons, repeated
// atoms, and empty relations), with and without learned cardinalities.
func TestBindJoinDifferentialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	preds := []string{"X.p", "X.q", "Y.r", "Y.s", "Z.t"}

	for trial := 0; trial < 25; trial++ {
		// Random partition of predicates over two peers; random data.
		oracle := rel.NewInstance()
		peerData := []map[string][]rel.Tuple{{}, {}}
		home := map[string]int{}
		for _, p := range preds {
			home[p] = rng.Intn(2)
			peerData[home[p]][p] = nil // declared even when left empty
			n := rng.Intn(25)
			for i := 0; i < n; i++ {
				tu := rel.Tuple{fmt.Sprintf("v%d", rng.Intn(8)), fmt.Sprintf("v%d", rng.Intn(8))}
				peerData[home[p]][p] = append(peerData[home[p]][p], tu)
				oracle.MustAdd(p, tu...)
			}
		}
		addrs := []string{startServer(t, peerData[0]), startServer(t, peerData[1])}
		for _, mode := range []struct {
			name     string
			discover bool // learn cardinalities → exercises the adaptive switch
		}{
			{"bind", false},
			{"bind-adaptive", true},
		} {
			ex := NewExecutor()
			for _, p := range preds {
				ex.Route(p, addrs[home[p]])
			}
			if mode.discover {
				for _, a := range addrs {
					if err := ex.Discover(a); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Random UCQ: 1-3 chain-shaped disjuncts with arity-2 head.
			var u lang.UCQ
			for d := 0; d < 1+rng.Intn(3); d++ {
				u.Add(randomChainCQ(rng, preds))
			}
			want, err := engine.New(oracle).EvalUCQ(u)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ex.EvalUCQ(u)
			ex.Close()
			if err != nil {
				t.Fatalf("trial %d %s: %v\n%s", trial, mode.name, err, u)
			}
			if !tuplesEqual(got, want) {
				t.Fatalf("trial %d %s: executor diverges from oracle on\n%s\ngot  %v\nwant %v",
					trial, mode.name, u, got, want)
			}
		}
	}
}

// TestBindJoinComparisonsAndCacheRepeat runs cross-peer queries with
// comparisons (exercising the filter-into-the-next-partial pruning path)
// twice each: both rounds must equal the oracle, and the repeat must be
// served from the fragment cache.
func TestBindJoinComparisonsAndCacheRepeat(t *testing.T) {
	left := map[string][]rel.Tuple{"SP.left": nil}
	right := map[string][]rel.Tuple{"SP.right": nil}
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("k%d", i)
		left["SP.left"] = append(left["SP.left"], rel.Tuple{k, fmt.Sprintf("payload-left-%06d", i)})
		for j := 0; j < 3; j++ {
			right["SP.right"] = append(right["SP.right"], rel.Tuple{k, fmt.Sprintf("payload-right-%06d-%02d", i, j)})
		}
	}
	e := engine.New(instanceOf(left, right))
	queries := []string{
		`q(x, p, r) :- SP.left(x, p), SP.right(x, r), x != "k3"`,
		`q(x) :- SP.left(x, p), SP.right(x, r), p < r`,
		`q(p, r) :- SP.left(x, p), SP.right(x, r), x >= "k2", x <= "k8"`,
	}
	ex := NewExecutor()
	defer ex.Close()
	for _, a := range []string{startServer(t, left), startServer(t, right)} {
		if err := ex.Discover(a); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		for _, qs := range queries {
			q, err := parser.ParseQuery(qs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.EvalCQ(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ex.EvalCQ(q)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, qs, err)
			}
			if !tuplesEqual(got, want) {
				t.Fatalf("round %d %s: got %d rows, want %d", round, qs, len(got), len(want))
			}
		}
	}
	if ex.frags.hits.Load() == 0 {
		t.Fatal("second round never hit the fragment cache")
	}
}

// randomChainCQ builds a chain join q(x0, xk) :- p(x0, x1), p(x1, x2), ...
// with random predicates, occasional constants at interior positions, an
// occasional comparison against a constant and an occasional comparison
// between two variables (x < y: ground only once both sides are bound,
// usually by different atoms).
func randomChainCQ(rng *rand.Rand, preds []string) lang.CQ {
	k := 2 + rng.Intn(3)
	vars := make([]lang.Term, k+1)
	for i := range vars {
		vars[i] = lang.Var(fmt.Sprintf("x%d", i))
	}
	q := lang.CQ{Head: lang.NewAtom("q", vars[0], vars[k])}
	for i := 0; i < k; i++ {
		l, r := vars[i], vars[i+1]
		// Interior positions may be replaced by constants (head vars x0
		// and xk stay variables so the query remains safe).
		if i > 0 && rng.Intn(5) == 0 {
			l = lang.Const(fmt.Sprintf("v%d", rng.Intn(8)))
		}
		if i+1 < k && rng.Intn(5) == 0 {
			r = lang.Const(fmt.Sprintf("v%d", rng.Intn(8)))
		}
		q.Body = append(q.Body, lang.NewAtom(preds[rng.Intn(len(preds))], l, r))
	}
	// Keep x0 and xk bound by at least one variable occurrence each.
	q.Body[0].Args[0] = vars[0]
	q.Body[k-1].Args[1] = vars[k]
	if rng.Intn(3) == 0 {
		// Compare only a variable that survived constant substitution, so
		// the query stays evaluable.
		var bodyVars []lang.Term
		for _, a := range q.Body {
			bodyVars = a.Vars(bodyVars)
		}
		q.Comps = append(q.Comps, lang.Comparison{
			Op: lang.CompOp(rng.Intn(6)),
			L:  bodyVars[rng.Intn(len(bodyVars))],
			R:  lang.Const(fmt.Sprintf("v%d", rng.Intn(8))),
		})
	}
	if rng.Intn(3) == 0 {
		q.Comps = append(q.Comps, lang.Comparison{Op: lang.OpLT, L: vars[0], R: vars[k]})
	}
	return q
}

// TestPlanOrderIsCardinalityOnly pins the executor's join order to the
// engine's cost model over the serving peers' cardinalities: A.r's
// constant earns a 1/8 discount (cost ~12.6 < 41), so A.r leads.
func TestPlanOrderIsCardinalityOnly(t *testing.T) {
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

	got := e.planOrder(q)
	want := engine.OrderBody(q.Body, func(pred string) int { return e.card[pred] })
	if !slices.Equal(got, want) {
		t.Fatalf("planOrder %v, cardinality-only model says %v", got, want)
	}
	if got[0] != 0 {
		t.Fatalf("cardinality-only order should lead with A.r: %v", got)
	}
}
