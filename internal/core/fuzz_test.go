package core_test

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/ppl"
	"repro/internal/rel"
	"repro/pdms"
)

// FuzzPPLReformulate is the reformulate-vs-chase differential under fuzzed
// PPL specifications (the carried-over ROADMAP item): for any specification
// and query the fuzzer can assemble, reformulation must never panic, its
// rewriting must evaluate, and its answers must agree with the chase oracle
// — exact certain-answer equality on PTIME specifications, soundness
// (answers ⊆ canonical-instance answers) outside the tractable fragment.
// The pruned and seed (unpruned) builds are both checked, so the fuzzer
// also hunts for inputs where the deep-topology pruning changes answers.
// Last, the query is posed at one pdms.Network twice, the second time with
// fresh constants in its atoms, and each answer must equal a fresh
// network's: a reformulation cached for the query's shape, with the
// constants left out of the key, must give the second query what
// reformulating it from scratch gives.
//
// Budget caps keep each exec fast; a build that hits the node or rewriting
// cap is skipped rather than compared (a truncated union is legitimately
// incomplete). The committed corpus under testdata/fuzz and the seeds below
// cover the shapes that matter: replicated mappings, decoy branches,
// equalities, definitional layers, comparisons, and constants the
// specification shares with the query — in a definitional head, a view
// body, a comparison bound — which must keep the constants in the key.
func FuzzPPLReformulate(f *testing.F) {
	type pair struct{ spec, query string }
	for _, s := range []pair{
		{
			"storage A.r(x, y) in A:R(x, y)\nfact A.r(\"1\", \"2\")",
			`q(x, y) :- A:R(x, y)`,
		},
		{
			"include B:S(x, y) in A:R(x, y)\ninclude B:S(x, y) in A:R(x, y)\nstorage B.s(x, y) in B:S(x, y)\nfact B.s(\"1\", \"2\")\nfact B.s(\"2\", \"3\")",
			`q(x, z) :- A:R(x, y), A:R(y, z)`,
		},
		{
			"include C:T(x, y) in B:S(x, y)\ninclude B:S(x, y) in A:R(x, y)\ninclude X:D(x, y) in A:R(x, y)\nstorage C.t(x, y) in C:T(x, y)\nfact C.t(\"1\", \"1\")",
			`q(x) :- A:R(x, x)`,
		},
		{
			"equal A:R(x, y) and B:S(x, y)\nstorage B.s(x, y) in B:S(x, y)\nfact B.s(\"a\", \"b\")",
			`q(x, y) :- A:R(x, y)`,
		},
		{
			"define T:Top(x, z) :- M:A(x, y), M:B(y, z)\nstorage S0.r(x, y) in M:A(x, y)\nstorage S1.r(x, y) in M:B(x, y)\nfact S0.r(\"1\", \"2\")\nfact S1.r(\"2\", \"3\")",
			`q(x, z) :- T:Top(x, z)`,
		},
		{
			"storage P0.s(x, y) in A:R(x, y), x >= 0, x < 10\nstorage P1.s(x, y) in A:R(x, y), x >= 10, x < 20\nfact P0.s(\"5\", \"a\")\nfact P1.s(\"15\", \"b\")",
			`q(x, y) :- A:R(x, y), x >= 10`,
		},
		{
			"storage A.r(x, y) in A:R(x, y)\nfact A.r(\"1\", \"2\")\nfact A.r(\"3\", \"4\")",
			`q(y) :- A:R("1", y), A:R(z, "2")`,
		},
		{
			"storage H.doc(s) in H:Doctor(s)\nstorage F.sk(s) in FS:Medic(s)\ndefine DC:Skilled(s, \"Doctor\") :- H:Doctor(s)\ndefine DC:Skilled(s, \"EMT\") :- FS:Medic(s)\nfact H.doc(\"d1\")\nfact F.sk(\"f1\")",
			`q(s) :- DC:Skilled(s, "EMT")`,
		},
		{
			"storage S.a(x) in A:R(x, \"a\")\nstorage S.any(x, y) in A:R(x, y)\ninclude B:T(x) in A:R(x, \"b\")\nstorage S.t(x) in B:T(x)\nfact S.a(\"1\")\nfact S.any(\"2\", \"b\")\nfact S.t(\"3\")",
			`q(x) :- A:R(x, "a")`,
		},
		{
			"storage S.low(x, y) in A:T(x, y), x <= 10\nstorage S.high(x, y) in A:T(x, y), x > 10\nfact S.low(\"10\", \"l\")\nfact S.high(\"11\", \"h\")",
			`q(y) :- A:T("10", y)`,
		},
		{
			"storage S.r(x, y) in A:R(x, y)\ninclude B:S(x) in A:R(x, x)\nstorage S.s(x) in B:S(x)\nfact S.r(\"1\", \"1\")\nfact S.r(\"1\", \"2\")\nfact S.s(\"2\")",
			`q(y) :- A:R("1", y), A:R(y, "1")`,
		},
	} {
		f.Add(s.spec, s.query)
	}
	f.Fuzz(func(t *testing.T, src, qsrc string) {
		if len(src) > 2048 || len(qsrc) > 256 {
			return
		}
		res, err := parser.Parse(src)
		if err != nil {
			return
		}
		q, err := parser.ParseQuery(qsrc)
		if err != nil {
			return
		}
		const maxNodes, maxRewritings = 20_000, 400
		answers := func(q lang.CQ, opts core.Options) ([]rel.Tuple, bool) {
			opts.MaxNodes = maxNodes
			opts.MaxRewritings = maxRewritings
			r, err := core.New(res.PDMS, opts)
			if err != nil {
				return nil, false
			}
			out, err := r.Reformulate(q)
			if err != nil {
				return nil, false // node budget exceeded: fuzzer-built pathological spec
			}
			if out.Stats.Rewritings >= maxRewritings {
				return nil, false // truncated union: legitimately incomplete
			}
			got, err := rel.EvalUCQ(out.UCQ, res.Data)
			if err != nil {
				t.Fatalf("rewriting of accepted query does not evaluate: %v\nspec:\n%s\nquery: %s", err, src, qsrc)
			}
			return rel.DistinctSorted(got), true
		}
		got, ok := answers(q, core.Options{})
		if !ok {
			return
		}
		if seed, ok := answers(q, core.Options{NoPruneSubsumed: true}); ok && !sameTuples(got, seed) {
			t.Fatalf("pruning changed answers:\npruned   %v\nunpruned %v\nspec:\n%s\nquery: %s", got, seed, src, qsrc)
		}
		// Both queries' trees fit the budget, so the networks, which have
		// none, finish them too.
		if fresh, ok := freshConstants(q, res.Data); ok {
			if gotFresh, ok := answers(fresh, core.Options{}); ok {
				checkNetworkAnswers(t, src, []lang.CQ{q, fresh}, [][]rel.Tuple{got, gotFresh})
			}
		}
		inst, err := chase.Chase(res.PDMS, res.Data, chase.Options{MaxRounds: 200})
		if err != nil {
			return // outside the supported/terminating fragment
		}
		canon, err := rel.EvalCQ(q, inst)
		if err != nil {
			return
		}
		have := map[string]bool{}
		for _, tup := range canon {
			have[tup.Key()] = true
		}
		for _, tup := range got {
			if !have[tup.Key()] {
				t.Fatalf("unsound answer %v not derivable in canonical instance\nspec:\n%s\nquery: %s", tup, src, qsrc)
			}
		}
		if res.PDMS.Classify(q).Class != ppl.PTime {
			return // completeness only guaranteed in the tractable fragment
		}
		want, err := chase.CertainAnswers(res.PDMS, res.Data, q, chase.Options{MaxRounds: 200})
		if err != nil {
			return
		}
		if !sameTuples(got, rel.DistinctSorted(want)) {
			t.Fatalf("reformulation disagrees with chase on PTIME spec:\n got %v\nwant %v\nspec:\n%s\nquery: %s", got, want, src, qsrc)
		}
	})
}

// sameTuples compares two sorted distinct tuple slices.
func sameTuples(a, b []rel.Tuple) bool {
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

// freshConstants returns q with each of its atom constants replaced by
// another value — a stored value where one is left, else a made-up one —
// equal constants by equal values and distinct ones by distinct values, so
// that the result has q's shape. It reports false when q has no atom
// constant or the result does not print back to itself.
func freshConstants(q lang.CQ, data *rel.Instance) (lang.CQ, bool) {
	old := q.Params(nil)
	if len(old) == 0 {
		return q, false
	}
	var pool []string
	for _, pred := range data.Relations() {
		for _, t := range data.Relation(pred).Tuples() {
			pool = append(pool, t...)
		}
	}
	slices.Sort(pool)
	for i := range old {
		pool = append(pool, "fresh"+strconv.Itoa(i))
	}
	var picked []string
	for _, c := range slices.Compact(pool) {
		if len(picked) < len(old) && !slices.Contains(old, c) {
			picked = append(picked, c)
		}
	}
	out := q.Clone()
	for _, a := range append([]lang.Atom{out.Head}, out.Body...) {
		for i, t := range a.Args {
			if t.IsConst() {
				a.Args[i] = lang.Const(picked[slices.Index(old, t.Name)])
			}
		}
	}
	back, err := parser.ParseQuery(out.String())
	if err != nil || back.String() != out.String() {
		return q, false
	}
	return out, true
}

// checkNetworkAnswers poses qs — a query, then its shape over other
// constants — in turn at one network loaded from src. Each answer must
// equal want's, the answers of its reformulation from scratch, and that of a
// network that has seen nothing else.
func checkNetworkAnswers(t *testing.T, src string, qs []lang.CQ, want [][]rel.Tuple) {
	shared, err := pdms.Load(src)
	if err != nil {
		return
	}
	for i, q := range qs {
		text := q.String()
		got, err := shared.Query(text)
		if err != nil {
			return // a query the network rejects, as a fresh one would
		}
		if got = rel.DistinctSorted(got); !sameTuples(got, want[i]) {
			t.Fatalf("%s after %s on one network: %v, reformulated from scratch: %v\nspec:\n%s", text, qs[0], got, want[i], src)
		}
		alone, err := pdms.Load(src)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := alone.Query(text)
		if err != nil {
			t.Fatalf("%s fails on a fresh network only: %v\nspec:\n%s", text, err, src)
		}
		if !sameTuples(got, rel.DistinctSorted(fresh)) {
			t.Fatalf("%s after %s on one network: %v, on a fresh network: %v\nspec:\n%s", text, qs[0], got, fresh, src)
		}
	}
}
