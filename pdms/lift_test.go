package pdms_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/ppl"
	"repro/internal/swarm"
	"repro/pdms"
)

// liftGroup is a list of queries of one shape, posed in order at one
// network; lifts says whether their constants may leave the cache key.
type liftGroup struct {
	queries []lang.CQ
	lifts   bool
}

// constantVariants binds q's variables to constants, each shape under two
// sets of values: with to empty, from to one constant (one shape); else
// from and to to equal constants, and to distinct ones (two shapes).
func constantVariants(q lang.CQ, from, to string) [][]lang.CQ {
	bind := func(a, b string) lang.CQ {
		s := lang.Subst{from: lang.Const(a)}
		if to != "" {
			s[to] = lang.Const(b)
		}
		return q.Apply(s)
	}
	if to == "" {
		return [][]lang.CQ{{bind("v1", ""), bind("v2", "")}}
	}
	return [][]lang.CQ{
		{bind("v1", "v1"), bind("v2", "v2")},
		{bind("v1", "v2"), bind("v3", "v1")},
	}
}

// TestShapeEntriesMatchUncachedReformulation is the differential judge of
// the shape-keyed reformulation cache. Over the swarm corpus (every peer;
// one constant, two equal constants, two distinct constants) and the §5
// corpus, each query of a shape is posed in turn at one network, and what
// Reformulate returns must equal an uncached core.Reformulate of the query
// as posed: the same rewriting text in the same order, the same Stats and
// Classification. Every constant of a shape's cached rewriting must be one
// of its parameters, and every query after the first must hit. Queries
// whose cone mentions constants or comparisons — the interning traps, and
// a comparison in the query — must keep their constants in the key: each
// of them misses.
func TestShapeEntriesMatchUncachedReformulation(t *testing.T) {
	type corpus struct {
		label  string
		spec   *ppl.PDMS
		groups []liftGroup
	}
	var corpora []corpus
	for _, p := range []swarm.Params{
		{Peers: 8, Topology: swarm.Chain, Seed: 1},
		{Peers: 12, Topology: swarm.Star, Seed: 1},
		{Peers: 12, Topology: swarm.SmallWorld, Seed: 2},
		{Peers: 13, Topology: swarm.SmallWorld, StoreCoverage: 0.5, Seed: 3},
	} {
		s, err := swarm.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		// A spec constant and a comparison outside every swarm peer's cone
		// must not stop the swarm's queries from lifting.
		res, err := parser.Parse(s.Mediator + "\nstorage Far.k(x) in Far:R(x, \"v1\")\nstorage Far.c(x, y) in Far:R(x, y), x < 5\n")
		if err != nil {
			t.Fatal(err)
		}
		c := corpus{label: fmt.Sprintf("swarm %s/%d", p.Topology, p.Peers), spec: res.PDMS}
		for peer := 0; peer < p.Peers; peer++ {
			rel := swarm.PeerRel(peer)
			one := mustParse(t, fmt.Sprintf("q(y) :- %s(x, y)", rel))
			two := mustParse(t, fmt.Sprintf("q(y) :- %s(x, y), %s(y, z)", rel, rel))
			for _, g := range append(constantVariants(one, "x", ""), constantVariants(two, "x", "z")...) {
				c.groups = append(c.groups, liftGroup{queries: g, lifts: true})
			}
		}
		c.groups = append(c.groups, liftGroup{ // a comparison in the query
			queries: []lang.CQ{
				mustParse(t, fmt.Sprintf(`q(y) :- %s("v1", y), y < "5"`, swarm.PeerRel(0))),
				mustParse(t, fmt.Sprintf(`q(y) :- %s("v2", y), y < "5"`, swarm.PeerRel(0))),
			},
		})
		corpora = append(corpora, c)
	}
	for seed := int64(0); seed < 3; seed++ {
		for _, p := range []swarm.Params{
			{Peers: 12, Topology: swarm.Strata, Diameter: 3, DefRatio: 0, Seed: seed},
			{Peers: 12, Topology: swarm.Strata, Diameter: 4, DefRatio: 0.25, StoreCoverage: 0.5, Seed: seed},
			{Peers: 12, Topology: swarm.Strata, Diameter: 3, DefRatio: 0.25, QueryLen: 2, Seed: seed},
		} {
			spec, err := swarm.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := parser.Parse(spec.Mediator)
			if err != nil {
				t.Fatal(err)
			}
			q := mustParse(t, spec.Query)
			first, last := q.Head.Args[0].Name, q.Head.Args[1].Name
			c := corpus{label: fmt.Sprintf("strata %+v", p), spec: res.PDMS}
			for _, g := range append(constantVariants(q, first, ""), constantVariants(q, first, last)...) {
				c.groups = append(c.groups, liftGroup{queries: g, lifts: true})
			}
			corpora = append(corpora, c)
		}
	}
	traps := []struct{ spec, shape string }{
		{"storage H.doc(s) in H:Doctor(s)\nstorage F.sk(s) in FS:Medic(s)\ndefine DC:Skilled(s, \"Doctor\") :- H:Doctor(s)\ndefine DC:Skilled(s, \"EMT\") :- FS:Medic(s)", `q(s) :- DC:Skilled(s, %q)`},
		{"storage S.a(x) in A:R(x, \"a\")\nstorage S.any(x, y) in A:R(x, y)\ninclude B:T(x) in A:R(x, \"b\")\nstorage S.t(x) in B:T(x)", `q(x) :- A:R(x, %q)`},
		{"storage S.low(x, y) in A:T(x, y), x <= 10\nstorage S.high(x, y) in A:T(x, y), x > 10", `q(y) :- A:T(%q, y)`},
	}
	for _, tr := range traps {
		res, err := parser.Parse(tr.spec)
		if err != nil {
			t.Fatal(err)
		}
		var qs []lang.CQ
		for _, c := range []string{"Doctor", "EMT", "a", "b", "10", "11", "fresh"} {
			qs = append(qs, mustParse(t, fmt.Sprintf(tr.shape, c)))
		}
		corpora = append(corpora, corpus{label: "trap " + tr.shape, spec: res.PDMS, groups: []liftGroup{{queries: qs}}})
	}

	posed := 0
	for _, c := range corpora {
		n := pdms.NewFromSpec(c.spec)
		reg := obs.NewRegistry()
		n.RegisterMetrics(reg)
		counts := func() (hits, misses uint64) {
			snap := reg.Snapshot()
			return snap.Counters["pdms.reform_cache.hits"], snap.Counters["pdms.reform_cache.misses"]
		}
		r, err := core.New(c.spec, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range c.groups {
			for i, q := range g.queries {
				hits, misses := counts()
				got, err := n.Reformulate(q.String())
				if err != nil {
					t.Fatalf("%s: %s: %v", c.label, q, err)
				}
				posed++
				if h, m := counts(); (i > 0 && g.lifts) != (h == hits+1 && m == misses) {
					t.Fatalf("%s: %s (query %d of its shape, lifts %v): hits %d -> %d, misses %d -> %d", c.label, q, i, g.lifts, hits, h, misses, m)
				}
				want, err := r.Reformulate(q)
				if err != nil {
					t.Fatal(err)
				}
				if got.Rewriting.String() != want.UCQ.String() {
					t.Fatalf("%s: %s:\n got %s\nwant %s", c.label, q, got.Rewriting, want.UCQ)
				}
				if !reflect.DeepEqual(got.Stats, want.Stats) || !reflect.DeepEqual(got.Classification, want.Classification) {
					t.Fatalf("%s: %s: Stats %+v, Classification %+v\nwant %+v, %+v", c.label, q, got.Stats, got.Classification, want.Stats, want.Classification)
				}
				if lifts := r.Parameterizable(q); lifts != g.lifts {
					t.Fatalf("%s: %s: Parameterizable = %v, want %v", c.label, q, lifts, g.lifts)
				}
				checkParameters(t, n, q, g.lifts)
			}
		}
	}
	if posed < 300 {
		t.Fatalf("only %d queries posed", posed)
	}
}

// checkParameters fetches q's entry from n's reformulation cache and checks
// that it is its shape's entry exactly when lifts is set, and that every
// constant of a shape's cached rewriting is one of q's parameters.
func checkParameters(t *testing.T, n *pdms.Network, q lang.CQ, lifts bool) {
	t.Helper()
	u, nparams, ok := n.CachedEntry(q)
	if !ok {
		t.Fatalf("%s: no cache entry", q)
	}
	if lifts != (nparams > 0) {
		t.Fatalf("%s: entry with %d parameters, want a shape's entry: %v", q, nparams, lifts)
	}
	if !lifts {
		return
	}
	posed := q.Params(nil)
	for _, d := range u.Disjuncts {
		for _, a := range append([]lang.Atom{d.Head}, d.Body...) {
			for _, arg := range a.Args {
				if !arg.IsConst() {
					continue
				}
				var i int
				if _, err := fmt.Sscanf(arg.Name, "$%d", &i); err != nil || i >= nparams || pdms.ParamName(i) != arg.Name {
					t.Fatalf("%s: cached rewriting %s holds %s, which is no parameter", q, d, arg)
				}
			}
		}
		for _, c := range posed {
			if strings.Contains(d.String(), fmt.Sprintf("%q", c)) {
				t.Fatalf("%s: cached rewriting %s holds the posed constant %q", q, d, c)
			}
		}
	}
}

func mustParse(t *testing.T, text string) lang.CQ {
	t.Helper()
	q, err := parser.ParseQuery(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return q
}

// TestShapeErrorsQuoteThePosedQuery poses queries that reformulation
// rejects on a specification where their constants would leave the key:
// the error must quote the query as posed, not its parameterised form.
func TestShapeErrorsQuoteThePosedQuery(t *testing.T) {
	n, err := pdms.Load("storage A.r(x, y) in A:R(x, y)\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{`q(y) :- A:R("k", y, z)`, `q(w) :- A:R("k", y)`} {
		_, err := n.Reformulate(text)
		if err == nil || !strings.Contains(err.Error(), `"k"`) || strings.Contains(err.Error(), "$0") {
			t.Errorf("Reformulate(%s): error %v, want one quoting the posed constant", text, err)
		}
	}
}
