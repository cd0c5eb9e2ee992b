package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/lang"
	"repro/internal/rel"
)

// The differential property test: the engine must agree exactly with the
// naive reference evaluator (rel.EvalCQ / rel.EvalUCQ) on randomized
// query/instance pairs — including after mid-test mutations, which exercise
// the incremental index catch-up.

var diffPreds = []struct {
	name  string
	arity int
}{
	{"R1", 1}, {"R2", 2}, {"R3", 3}, {"S2", 2},
}

func randInstance(rng *rand.Rand, domain int) *rel.Instance {
	ins := rel.NewInstance()
	for _, p := range diffPreds {
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			t := make(rel.Tuple, p.arity)
			for j := range t {
				t[j] = fmt.Sprintf("c%d", rng.Intn(domain))
			}
			ins.MustAdd(p.name, t...)
		}
	}
	return ins
}

func randTerm(rng *rand.Rand, vars []string, domain int) lang.Term {
	if rng.Intn(4) == 0 {
		return lang.Const(fmt.Sprintf("c%d", rng.Intn(domain)))
	}
	return lang.Var(vars[rng.Intn(len(vars))])
}

// randCQ builds a random safe conjunctive query over diffPreds.
func randCQ(rng *rand.Rand, domain int) lang.CQ {
	vars := []string{"v0", "v1", "v2", "v3", "v4"}
	nAtoms := 1 + rng.Intn(4)
	var body []lang.Atom
	for i := 0; i < nAtoms; i++ {
		p := diffPreds[rng.Intn(len(diffPreds))]
		args := make([]lang.Term, p.arity)
		for j := range args {
			args[j] = randTerm(rng, vars, domain)
		}
		body = append(body, lang.Atom{Pred: p.name, Args: args})
	}
	// Head: a random subset of the body variables (safety by construction).
	var bodyVars []lang.Term
	for _, a := range body {
		bodyVars = a.Vars(bodyVars)
	}
	var head []lang.Term
	for _, v := range bodyVars {
		if rng.Intn(2) == 0 {
			head = append(head, v)
		}
	}
	if len(head) == 0 && len(bodyVars) > 0 {
		head = append(head, bodyVars[rng.Intn(len(bodyVars))])
	}
	q := lang.CQ{Head: lang.Atom{Pred: "q", Args: head}, Body: body}
	// Occasionally add a comparison over bound body variables.
	if len(bodyVars) > 0 && rng.Intn(3) == 0 {
		ops := []lang.CompOp{lang.OpEQ, lang.OpNE, lang.OpLT, lang.OpLE, lang.OpGT, lang.OpGE}
		r := lang.Term(lang.Const(fmt.Sprintf("c%d", rng.Intn(domain))))
		if rng.Intn(2) == 0 {
			r = bodyVars[rng.Intn(len(bodyVars))]
		}
		c := lang.Comparison{
			Op: ops[rng.Intn(len(ops))],
			L:  bodyVars[rng.Intn(len(bodyVars))],
			R:  r,
		}
		q.Comps = []lang.Comparison{c}
	}
	return q
}

func TestDifferentialCQ(t *testing.T) {
	const pairs = 150
	for seed := 0; seed < pairs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		domain := 3 + rng.Intn(5)
		ins := randInstance(rng, domain)
		e := New(ins)
		for k := 0; k < 3; k++ {
			q := randCQ(rng, domain)
			want, errWant := rel.EvalCQ(q, ins)
			got, errGot := e.EvalCQ(q)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("seed %d: error mismatch on %s: naive %v, engine %v", seed, q, errWant, errGot)
			}
			if errWant != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: answer mismatch on %s:\nnaive  %v\nengine %v", seed, q, want, got)
			}
			// Mutate and re-check: indexes must catch up incrementally.
			p := diffPreds[rng.Intn(len(diffPreds))]
			tup := make(rel.Tuple, p.arity)
			for j := range tup {
				tup[j] = fmt.Sprintf("c%d", rng.Intn(domain))
			}
			ins.MustAdd(p.name, tup...)
			want2, err := rel.EvalCQ(q, ins)
			if err != nil {
				t.Fatal(err)
			}
			got2, err := e.EvalCQ(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got2, want2) {
				t.Fatalf("seed %d: post-insert mismatch on %s:\nnaive  %v\nengine %v", seed, q, want2, got2)
			}
		}
	}
}

func TestDifferentialUCQ(t *testing.T) {
	const pairs = 120
	for seed := 0; seed < pairs; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		domain := 3 + rng.Intn(5)
		ins := randInstance(rng, domain)
		e := New(ins)
		// Disjuncts must share head arity: project every disjunct head to
		// the same width by regenerating until widths match.
		first := randCQ(rng, domain)
		u := lang.UCQ{Disjuncts: []lang.CQ{first}}
		for len(u.Disjuncts) < 1+rng.Intn(3) {
			d := randCQ(rng, domain)
			if d.Head.Arity() == first.Head.Arity() {
				d.Head.Pred = first.Head.Pred
				u.Disjuncts = append(u.Disjuncts, d)
			}
		}
		want, errWant := rel.EvalUCQ(u, ins)
		got, errGot := e.EvalUCQ(u)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("seed %d: error mismatch: naive %v, engine %v", seed, errWant, errGot)
		}
		if errWant != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: mismatch on\n%s\nnaive  %v\nengine %v", seed, u, want, got)
		}
	}
}

// TestDifferentialUCQWideFanout drives EvalUCQ's worker pool with far more
// disjuncts than workers (the bounded fan-out mirrors the netpeer
// executor's), checking the parallel result — and its first-failure error
// semantics — against the naive oracle.
func TestDifferentialUCQWideFanout(t *testing.T) {
	for seed := 0; seed < 30; seed++ {
		rng := rand.New(rand.NewSource(int64(5000 + seed)))
		domain := 3 + rng.Intn(5)
		ins := randInstance(rng, domain)
		e := New(ins)
		first := randCQ(rng, domain)
		u := lang.UCQ{Disjuncts: []lang.CQ{first}}
		for len(u.Disjuncts) < 24 {
			d := randCQ(rng, domain)
			if d.Head.Arity() == first.Head.Arity() {
				d.Head.Pred = first.Head.Pred
				u.Disjuncts = append(u.Disjuncts, d)
			}
		}
		want, errWant := rel.EvalUCQ(u, ins)
		got, errGot := e.EvalUCQ(u)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("seed %d: error mismatch: naive %v, engine %v", seed, errWant, errGot)
		}
		if errWant != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: mismatch on\n%s\nnaive  %v\nengine %v", seed, u, want, got)
		}
	}
}
