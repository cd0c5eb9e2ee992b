package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/obs"
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
		if checked, err := sortedDistinctUnion(t, u, e.EvalCQSpan); err != nil || !reflect.DeepEqual(checked, want) {
			t.Fatalf("seed %d: through the checked union: %v, %v; want %v", seed, checked, err, want)
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
		if checked, err := sortedDistinctUnion(t, u, e.EvalCQSpan); err != nil || !reflect.DeepEqual(checked, want) {
			t.Fatalf("seed %d: through the checked union: %v, %v; want %v", seed, checked, err, want)
		}
	}
}

// sortedDistinctUnion is EvalUnion over evalCQ, failing t unless every
// disjunct's answer holds distinct tuples in rel.Compare order — the
// precondition EvalUnion merges on. It runs at the executor's width
// (MaxUnionFanout), so the corpus also evaluates the engine's disjuncts
// concurrently, as EvalUCQ no longer does.
func sortedDistinctUnion(t *testing.T, u lang.UCQ, evalCQ func(lang.CQ, *obs.Span) ([]rel.Tuple, error)) ([]rel.Tuple, error) {
	return EvalUnion(u, nil, MaxUnionFanout, func(q lang.CQ, sp *obs.Span) ([]rel.Tuple, error) {
		rows, err := evalCQ(q, sp)
		for i := 1; i < len(rows); i++ {
			if rel.Compare(rows[i-1], rows[i]) >= 0 {
				t.Errorf("disjunct %s: answer %v not strictly before %v", q, rows[i-1], rows[i])
				break
			}
		}
		return rows, err
	})
}

// TestDifferentialAcrossResizes grows one relation through several arena
// chunks — rows longer than a chunk get one of their own — and several
// tuple-set regrowths between evaluations of the same union on one engine,
// whose indexes catch up across them. A writer inserts each batch while
// the union runs, so under -race probes and scans read stored rows while
// inserts write the same chunk. Every answer lies between the naive
// oracle's before and after the batch, and equals it once the batch is in.
func TestDifferentialAcrossResizes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var domain []string
	for i := range 30 {
		domain = append(domain, fmt.Sprintf("c%d", i))
	}
	for i := range 6 {
		domain = append(domain, fmt.Sprintf("long%d-%s", i, strings.Repeat("x", 300)))
	}
	domain = append(domain, "huge-"+strings.Repeat("h", 70<<10))
	ins := rel.NewInstance()
	for i := range 10 {
		ins.MustAdd("S2", domain[i], domain[rng.Intn(len(domain))])
	}
	v, c := lang.Var, lang.Const
	u := lang.UCQ{Disjuncts: []lang.CQ{{
		Head: lang.NewAtom("q", v("x"), v("z")),
		Body: []lang.Atom{lang.NewAtom("S2", v("x"), v("y")), lang.NewAtom("R2", v("y"), v("z"))},
	}, {
		Head: lang.NewAtom("q", v("x"), v("z")),
		Body: []lang.Atom{lang.NewAtom("R2", c("c3"), v("z")), lang.NewAtom("R2", v("z"), v("x"))},
	}, {
		Head: lang.NewAtom("q", v("x"), v("x")),
		Body: []lang.Atom{lang.NewAtom("R2", v("x"), v("x"))},
	}}}
	e := New(ins)
	r := ins.EnsureRelation("R2", 2)
	var before []rel.Tuple
	for round := range 12 {
		batch := make([]rel.Tuple, 100)
		for i := range batch {
			batch[i] = rel.Tuple{domain[rng.Intn(len(domain))], domain[rng.Intn(len(domain))]}
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, tu := range batch {
				if _, err := r.Insert(tu); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		during, err := e.EvalUCQ(u)
		<-done
		if err != nil {
			t.Fatal(err)
		}
		after, err := rel.EvalUCQ(u, ins)
		if err != nil {
			t.Fatal(err)
		}
		if !isSubset(before, during) || !isSubset(during, after) {
			t.Fatalf("round %d: %d answers during the batch, outside [%d, %d] before and after", round, len(during), len(before), len(after))
		}
		got, err := e.EvalUCQ(u)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, after) {
			t.Fatalf("round %d (%d rows): engine %d answers, naive %d", round, r.Len(), len(got), len(after))
		}
		before = after
	}
	// Past 512 rows the tuple set has regrown from 8 slots to 1024.
	if r.Len() < 512 {
		t.Fatalf("R2 grew to %d rows only", r.Len())
	}
}

// isSubset reports whether every tuple of sub is in sup; both are sorted
// and distinct.
func isSubset(sub, sup []rel.Tuple) bool {
	i := 0
	for _, tu := range sub {
		for i < len(sup) && rel.Compare(sup[i], tu) < 0 {
			i++
		}
		if i == len(sup) || !sup[i].Equal(tu) {
			return false
		}
	}
	return true
}
