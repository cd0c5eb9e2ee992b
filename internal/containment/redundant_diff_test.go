package containment_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/swarm"
)

// removeRedundantQuadratic is RemoveRedundant as it was before disjuncts
// were prepared once and pairs rejected by predicate signature: every pair
// goes through Contains. Kept as the reference the fast version must match
// disjunct for disjunct.
func removeRedundantQuadratic(u lang.UCQ) lang.UCQ {
	var out lang.UCQ
	for i, d := range u.Disjuncts {
		redundant := false
		for j, e := range u.Disjuncts {
			if i == j {
				continue
			}
			if containment.Contains(d, e) {
				// Tie-break mutual containment by index.
				if containment.Contains(e, d) && i < j {
					continue
				}
				redundant = true
				break
			}
		}
		if !redundant {
			out.Add(d)
		}
	}
	if out.Len() == 0 && u.Len() > 0 {
		out.Add(u.Disjuncts[0])
	}
	return out
}

func assertSameUnion(t *testing.T, label string, u lang.UCQ) {
	t.Helper()
	got, want := containment.RemoveRedundant(u), removeRedundantQuadratic(u)
	if got.Len() != want.Len() {
		t.Fatalf("%s: kept %d disjuncts, reference %d\nunion %v\ngot   %v\nwant  %v", label, got.Len(), want.Len(), u, got, want)
	}
	for i := range got.Disjuncts {
		if g, w := got.Disjuncts[i].String(), want.Disjuncts[i].String(); g != w {
			t.Fatalf("%s: disjunct %d is %s, reference %s\nunion %v", label, i, g, w, u)
		}
	}
}

// randomUnion draws a union whose disjuncts share few predicates, repeat
// them, put constants in heads and bodies, and carry comparisons — some
// unsatisfiable, which makes a disjunct contained in everything whatever its
// predicates.
func randomUnion(rng *rand.Rand) lang.UCQ {
	vars := []lang.Term{lang.Var("x"), lang.Var("y"), lang.Var("z"), lang.Var("w")}
	consts := []lang.Term{lang.Const("a"), lang.Const("b"), lang.Const("3")}
	preds := []string{"R", "S", "T", "A.r", "B.r"}
	term := func() lang.Term {
		if rng.Intn(5) == 0 {
			return consts[rng.Intn(len(consts))]
		}
		return vars[rng.Intn(len(vars))]
	}
	ops := []lang.CompOp{lang.OpLT, lang.OpLE, lang.OpEQ, lang.OpNE, lang.OpGT, lang.OpGE}
	arity := 1 + rng.Intn(2)
	var u lang.UCQ
	for n := 1 + rng.Intn(7); n > 0; n-- {
		head := make([]lang.Term, arity)
		for i := range head {
			head[i] = vars[i]
			if rng.Intn(8) == 0 {
				head[i] = consts[rng.Intn(len(consts))]
			}
		}
		if rng.Intn(25) == 0 {
			head = head[:1] // a stray disjunct of another arity
		}
		q := lang.CQ{Head: lang.NewAtom("q", head...)}
		for b := 1 + rng.Intn(3); b > 0; b-- {
			p := preds[rng.Intn(len(preds))]
			if rng.Intn(6) == 0 {
				q.Body = append(q.Body, lang.NewAtom(p, term())) // same name, other arity
				continue
			}
			q.Body = append(q.Body, lang.NewAtom(p, term(), term()))
		}
		for c := rng.Intn(3); c > 0 && rng.Intn(2) == 0; c-- {
			q.Comps = append(q.Comps, lang.Comparison{Op: ops[rng.Intn(len(ops))], L: term(), R: term()})
		}
		if rng.Intn(12) == 0 {
			q.Comps = append(q.Comps,
				lang.Comparison{Op: lang.OpLT, L: vars[0], R: vars[1]},
				lang.Comparison{Op: lang.OpLT, L: vars[1], R: vars[0]})
		}
		u.Add(q)
	}
	return u
}

func TestRemoveRedundantMatchesQuadraticOnRandomUnions(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3000; trial++ {
		assertSameUnion(t, fmt.Sprintf("trial %d", trial), randomUnion(rng))
	}
}

// TestRemoveRedundantMatchesQuadraticOnSwarmRewritings runs both versions
// over the unminimized rewriting set of every peer's query on chain, star
// and small-world swarms.
func TestRemoveRedundantMatchesQuadraticOnSwarmRewritings(t *testing.T) {
	for _, p := range []swarm.Params{
		{Peers: 10, Topology: swarm.Chain, Seed: 1},
		{Peers: 12, Topology: swarm.Star, Seed: 2},
		{Peers: 14, Topology: swarm.SmallWorld, Seed: 3},
		{Peers: 13, Topology: swarm.SmallWorld, StoreCoverage: 0.5, Seed: 4},
		{Peers: 7, Topology: swarm.Chain, QueryLen: 2, Seed: 5},
	} {
		spec, err := swarm.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := parser.Parse(spec.Mediator)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.New(res.PDMS, core.Options{KeepRedundant: true})
		if err != nil {
			t.Fatal(err)
		}
		texts := []string{spec.Query}
		for peer := 0; peer < p.Peers; peer++ {
			texts = append(texts, fmt.Sprintf("q(y) :- %s(%q, y)", swarm.PeerRel(peer), "v1"))
		}
		redundant := 0
		for _, text := range texts {
			q, err := parser.ParseQuery(text)
			if err != nil {
				t.Fatal(err)
			}
			out, err := r.Reformulate(q)
			if err != nil {
				t.Fatal(err)
			}
			assertSameUnion(t, fmt.Sprintf("%s/%d peers: %s", p.Topology, p.Peers, text), out.UCQ)
			redundant += out.UCQ.Len() - containment.RemoveRedundant(out.UCQ).Len()
		}
		if p.Topology == swarm.SmallWorld && redundant == 0 {
			t.Errorf("%s/%d peers: no rewriting set had a redundant disjunct; the corpus does not exercise removal", p.Topology, p.Peers)
		}
	}
}
