package containment

import (
	"math/rand"
	"testing"

	"repro/internal/lang"
	"repro/internal/rel"
)

func v(n string) lang.Term { return lang.Var(n) }
func k(n string) lang.Term { return lang.Const(n) }

func atom(p string, args ...lang.Term) lang.Atom { return lang.NewAtom(p, args...) }

func TestContainsReflexive(t *testing.T) {
	q := lang.CQ{Head: atom("q", v("x")), Body: []lang.Atom{atom("R", v("x"), v("y"))}}
	if !Contains(q, q) {
		t.Fatal("containment must be reflexive")
	}
}

func TestContainsClassic(t *testing.T) {
	// q1(x) :- R(x,y), R(y,z)   (paths of length 2)
	// q2(x) :- R(x,y)           (edges)
	// q1 ⊆ q2 (every 2-path start has an edge), not conversely.
	q1 := lang.CQ{Head: atom("q", v("x")), Body: []lang.Atom{
		atom("R", v("x"), v("y")), atom("R", v("y"), v("z"))}}
	q2 := lang.CQ{Head: atom("q", v("x")), Body: []lang.Atom{atom("R", v("x"), v("y"))}}
	if !Contains(q1, q2) {
		t.Fatal("2-path ⊆ edge failed")
	}
	if Contains(q2, q1) {
		t.Fatal("edge ⊄ 2-path")
	}
}

func TestContainsConstants(t *testing.T) {
	// q1(x) :- R(x, "a")  ⊆  q2(x) :- R(x, y); not conversely.
	q1 := lang.CQ{Head: atom("q", v("x")), Body: []lang.Atom{atom("R", v("x"), k("a"))}}
	q2 := lang.CQ{Head: atom("q", v("x")), Body: []lang.Atom{atom("R", v("x"), v("y"))}}
	if !Contains(q1, q2) {
		t.Fatal("const-selective ⊆ general failed")
	}
	if Contains(q2, q1) {
		t.Fatal("general ⊄ const-selective")
	}
}

func TestContainsHeadMismatchArity(t *testing.T) {
	q1 := lang.CQ{Head: atom("q", v("x")), Body: []lang.Atom{atom("R", v("x"))}}
	q2 := lang.CQ{Head: atom("q", v("x"), v("y")), Body: []lang.Atom{atom("R", v("x"))}}
	if Contains(q1, q2) {
		t.Fatal("arity mismatch must fail")
	}
}

func TestContainsDifferentHeadNames(t *testing.T) {
	// Rewritings may carry different head predicate names.
	q1 := lang.CQ{Head: atom("q1", v("x")), Body: []lang.Atom{atom("R", v("x"), k("a"))}}
	q2 := lang.CQ{Head: atom("q2", v("x")), Body: []lang.Atom{atom("R", v("x"), v("y"))}}
	if !Contains(q1, q2) {
		t.Fatal("head name should be ignored for same-arity rewritings")
	}
}

func TestContainsWithComparisons(t *testing.T) {
	// q1(x) :- R(x,a), a > 10   ⊆   q2(x) :- R(x,b), b > 5.
	q1 := lang.CQ{
		Head:  atom("q", v("x")),
		Body:  []lang.Atom{atom("R", v("x"), v("a"))},
		Comps: []lang.Comparison{{Op: lang.OpGT, L: v("a"), R: k("10")}},
	}
	q2 := lang.CQ{
		Head:  atom("q", v("x")),
		Body:  []lang.Atom{atom("R", v("x"), v("b"))},
		Comps: []lang.Comparison{{Op: lang.OpGT, L: v("b"), R: k("5")}},
	}
	if !Contains(q1, q2) {
		t.Fatal("a>10 ⊆ b>5 failed")
	}
	if Contains(q2, q1) {
		t.Fatal("b>5 ⊄ a>10")
	}
}

func TestContainsUnsatisfiableLHS(t *testing.T) {
	q1 := lang.CQ{
		Head:  atom("q", v("x")),
		Body:  []lang.Atom{atom("R", v("x"))},
		Comps: []lang.Comparison{{Op: lang.OpLT, L: v("x"), R: v("x")}},
	}
	q2 := lang.CQ{Head: atom("q", v("x")), Body: []lang.Atom{atom("S", v("x"))}}
	if !Contains(q1, q2) {
		t.Fatal("empty query contained in everything")
	}
}

func TestRemoveRedundant(t *testing.T) {
	gen := lang.CQ{Head: atom("q", v("x")), Body: []lang.Atom{atom("R", v("x"), v("y"))}}
	spec := lang.CQ{Head: atom("q", v("x")), Body: []lang.Atom{atom("R", v("x"), k("a"))}}
	var u lang.UCQ
	u.Add(spec)
	u.Add(gen)
	out := RemoveRedundant(u)
	if out.Len() != 1 || len(out.Disjuncts[0].Body) != 1 || out.Disjuncts[0].Body[0].Args[1] != v("y") {
		t.Fatalf("RemoveRedundant = %v", out)
	}
}

func TestRemoveRedundantMutual(t *testing.T) {
	// Two alpha-equivalent disjuncts: exactly one survives.
	a := lang.CQ{Head: atom("q", v("x")), Body: []lang.Atom{atom("R", v("x"), v("y"))}}
	b := lang.CQ{Head: atom("q", v("u")), Body: []lang.Atom{atom("R", v("u"), v("w"))}}
	var u lang.UCQ
	u.Add(a)
	u.Add(b)
	out := RemoveRedundant(u)
	if out.Len() != 1 {
		t.Fatalf("mutual containment: kept %d", out.Len())
	}
}

// Property: containment agrees with evaluation on random instances
// (soundness of Contains — if q1 ⊆ q2 is claimed, answers must be a subset
// on every sampled instance).
func TestContainsSoundnessOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vars := []lang.Term{v("x"), v("y"), v("z"), v("w")}
	randQ := func() lang.CQ {
		nb := 1 + rng.Intn(3)
		q := lang.CQ{Head: atom("q", vars[0])}
		for i := 0; i < nb; i++ {
			q.Body = append(q.Body, atom(
				string(rune('R'+rng.Intn(2))),
				vars[rng.Intn(3)], vars[rng.Intn(4)]))
		}
		if !q.IsSafe() {
			q.Body = append(q.Body, atom("R", vars[0], vars[1]))
		}
		return q
	}
	randInstance := func() *rel.Instance {
		ins := rel.NewInstance()
		for i := 0; i < 6; i++ {
			ins.MustAdd(string(rune('R'+rng.Intn(2))),
				string(rune('a'+rng.Intn(3))), string(rune('a'+rng.Intn(3))))
		}
		return ins
	}
	for trial := 0; trial < 300; trial++ {
		q1, q2 := randQ(), randQ()
		if !Contains(q1, q2) {
			continue
		}
		ins := randInstance()
		r1, err1 := rel.EvalCQ(q1, ins)
		r2, err2 := rel.EvalCQ(q2, ins)
		if err1 != nil || err2 != nil {
			t.Fatalf("eval error: %v %v", err1, err2)
		}
		have := map[string]bool{}
		for _, tup := range r2 {
			have[tup.Key()] = true
		}
		for _, tup := range r1 {
			if !have[tup.Key()] {
				t.Fatalf("trial %d: claimed %s ⊆ %s but %v ∈ q1 \\ q2 on\n%s",
					trial, q1, q2, tup, ins)
			}
		}
	}
}
