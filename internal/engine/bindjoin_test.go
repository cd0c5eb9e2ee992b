package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/rel"
)

// fetchCall records one call BindJoin made to its fetch: what it was
// handed (atom is the body position), a copy taken at the call, and the
// rows it got back with a copy of them, so a later write to either side
// shows.
type fetchCall struct {
	atom            int
	keyPos, keyPos0 []int
	keys, keys0     [][]string
	rows, rows0     []rel.Tuple
}

// refFetch serves BindJoin's fetch of q's atoms from ins, by a naive scan
// that shares no code with it: for body position i and a = q.Body[i], the
// rows of a's relation that agree with a's constants and repeated
// variables and, when keys is non-nil, with one key row at
// keyPos. With junk set it also returns rows the atom rejects: the
// relation's other rows (wrong constants, repeats or keys), a repeat of
// every row, and for every key one row a value too long whose prefix
// passes every check. The result is shuffled. Each call is appended to
// calls.
func refFetch(q lang.CQ, ins *rel.Instance, rng *rand.Rand, junk bool, calls *[]fetchCall) func(int, []int, [][]string) ([]rel.Tuple, error) {
	return func(i int, keyPos []int, keys [][]string) ([]rel.Tuple, error) {
		a := q.Body[i]
		var rows []rel.Tuple
		if r := ins.Relation(a.Pred); r != nil {
			for _, t := range r.Tuples() {
				if atomAdmits(a, t) && keyAdmits(t, keyPos, keys) {
					rows = append(rows, t)
				} else if junk {
					rows = append(rows, t)
				}
			}
		}
		if junk {
			rows = append(rows, rows...)
			fabricate := func(key []string) {
				t := make(rel.Tuple, a.Arity(), a.Arity()+1)
				for i, arg := range a.Args {
					t[i] = "junk-" + arg.Name
					if arg.IsConst() {
						t[i] = arg.Name
					}
					if j := slices.Index(keyPos, slices.Index(a.Args, arg)); j >= 0 {
						t[i] = key[j]
					}
				}
				rows = append(rows, append(t, "extra"))
			}
			if keys == nil {
				fabricate(nil)
			}
			for _, k := range keys {
				fabricate(k)
			}
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		*calls = append(*calls, fetchCall{
			atom: i, keyPos: keyPos, keyPos0: slices.Clone(keyPos),
			keys: keys, keys0: cloneRows(keys),
			rows: rows, rows0: cloneRows(rows),
		})
		return rows, nil
	}
}

func cloneRows[T ~[]string](rows []T) []T {
	out := make([]T, len(rows))
	for i, r := range rows {
		out[i] = slices.Clone(r)
	}
	return out
}

// atomAdmits reports whether t, of a's arity, agrees with a's constants and
// repeated variables.
func atomAdmits(a lang.Atom, t rel.Tuple) bool {
	for i, x := range a.Args {
		if x.IsConst() && t[i] != x.Name {
			return false
		}
		for j, y := range a.Args {
			if x.IsVar() && x == y && t[i] != t[j] {
				return false
			}
		}
	}
	return true
}

// keyAdmits reports whether t matches one of keys at keyPos (any t when
// keys is nil).
func keyAdmits(t rel.Tuple, keyPos []int, keys [][]string) bool {
	if keys == nil {
		return true
	}
	for _, k := range keys {
		ok := true
		for j, p := range keyPos {
			ok = ok && t[p] == k[j]
		}
		if ok {
			return true
		}
	}
	return false
}

// greedyOrder is the join order BindJoin must fetch in, computed apart
// from the engine: repeatedly the atom i with the least
// (cards[i] + 1) / 8^b, b its positions holding a constant or a variable
// of an atom taken earlier, the first in body order on a tie.
func greedyOrder(body []lang.Atom, cards []int) []int {
	var order []int
	bound := map[string]bool{}
	for len(order) < len(body) {
		best, bestCost := -1, 0.0
		for i, a := range body {
			if slices.Contains(order, i) {
				continue
			}
			cost := float64(cards[i] + 1)
			for _, t := range a.Args {
				if t.IsConst() || bound[t.Name] {
					cost /= 8
				}
			}
			if best < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		order = append(order, best)
		for _, v := range body[best].Vars(nil) {
			bound[v.Name] = true
		}
	}
	return order
}

// prefixQuery is q cut to the atoms at order[:n]: every variable in the
// head, and the comparisons whose variables those atoms all hold.
func prefixQuery(q lang.CQ, order []int) lang.CQ {
	p := lang.CQ{Head: lang.Atom{Pred: "prefix"}}
	for _, i := range order {
		p.Body = append(p.Body, q.Body[i])
		p.Head.Args = q.Body[i].Vars(p.Head.Args)
	}
	for _, c := range q.Comps {
		if !slices.ContainsFunc(c.Vars(nil), func(v lang.Term) bool { return !slices.Contains(p.Head.Args, v) }) {
			p.Comps = append(p.Comps, c)
		}
	}
	return p
}

// bindJoin is BindJoin over q's plan for cards, from a fresh plan cache.
func bindJoin(q lang.CQ, cards []int, fetch func(int, []int, [][]string) ([]rel.Tuple, error)) ([]rel.Tuple, error) {
	p, err := NewPlanCache().Plan(q, cards)
	if err != nil {
		return nil, err
	}
	return BindJoin(p, q, fetch)
}

// permuteConstants returns q with every atom constant drawn as a digit
// (randomBindJoinCQ's) moved to the next digit mod 4: equal constants stay
// equal and distinct ones distinct, so the result has q's shape, and the
// comparisons are q's own.
func permuteConstants(q lang.CQ) lang.CQ {
	q = q.Clone()
	perm := func(a *lang.Atom) {
		for i, t := range a.Args {
			if d := strings.IndexByte("0123", t.Name[0]); t.IsConst() && len(t.Name) == 1 && d >= 0 {
				a.Args[i] = lang.Const(fmt.Sprint((d + 1) % 4))
			}
		}
	}
	perm(&q.Head)
	for i := range q.Body {
		perm(&q.Body[i])
	}
	return q
}

// bindJoinPreds are the relations the randomized judge draws from, and
// bindJoinArities their arities.
var (
	bindJoinPreds   = []string{"A", "B", "C", "D"}
	bindJoinArities = map[string]int{"A": 2, "B": 2, "C": 1, "D": 3}
)

// randomBindJoinCQ draws a safe CQ of one to four atoms over A–D and the
// variables x, y, z and u: constants, variables repeated inside one atom
// (bound by an earlier atom or not), all-constant atoms, comparisons
// between variables of different atoms, against a constant or between two
// constants, and comparisons on w, a variable no atom binds.
func randomBindJoinCQ(rng *rand.Rand) lang.CQ {
	vars := []string{"x", "y", "z", "u"}
	var q lang.CQ
	for n := 1 + rng.Intn(4); len(q.Body) < n; {
		a := lang.Atom{Pred: bindJoinPreds[rng.Intn(len(bindJoinPreds))]}
		allConst := rng.Intn(8) == 0
		for range bindJoinArities[a.Pred] {
			if allConst || rng.Intn(5) == 0 {
				a.Args = append(a.Args, lang.Const(fmt.Sprint(rng.Intn(4))))
			} else {
				a.Args = append(a.Args, lang.Var(vars[rng.Intn(len(vars))]))
			}
		}
		q.Body = append(q.Body, a)
	}
	var bodyVars []lang.Term
	for _, a := range q.Body {
		bodyVars = a.Vars(bodyVars)
	}
	q.Head = lang.Atom{Pred: "q"}
	for _, v := range bodyVars {
		if rng.Intn(3) > 0 {
			q.Head.Args = append(q.Head.Args, v)
		}
	}
	if rng.Intn(4) == 0 {
		q.Head.Args = append(q.Head.Args, lang.Const("h"))
	}
	term := func() lang.Term {
		if len(bodyVars) == 0 || rng.Intn(3) == 0 {
			return lang.Const(fmt.Sprint(rng.Intn(4)))
		}
		return bodyVars[rng.Intn(len(bodyVars))]
	}
	for range rng.Intn(3) {
		c := lang.Comparison{Op: lang.CompOp(rng.Intn(6)), L: term(), R: term()}
		switch rng.Intn(6) {
		case 0:
			c.L = lang.Var("w")
		case 1:
			c.L, c.R = lang.Const(fmt.Sprint(rng.Intn(4))), lang.Const(fmt.Sprint(rng.Intn(4)))
		}
		q.Comps = append(q.Comps, c)
	}
	return q
}

// TestBindJoinMatchesReference judges BindJoin by the naive reference
// evaluator (rel.EvalCQ) over randomized CQs and instances, empty
// relations among them, with fetch served by refFetch, which on half the
// calls also returns rows the atom rejects. Besides the answer (or the
// error: an unbound comparison is one exactly when a complete match
// exists) it checks the fetches themselves:
//   - they run in the cardinality order (greedyOrder), compared by body
//     position, so two equal atoms are told apart;
//   - every atom fetched after the first joins a non-empty prefix, and a
//     join that stops early stops on an empty one;
//   - a false variable-free comparison fetches nothing;
//   - the keys are distinct, no key position holds one of the atom's
//     constants, and neither what BindJoin handed fetch nor what fetch
//     returned was written to afterwards.
//
// Each query's sibling, its atom constants permuted (permuteConstants),
// must then get the same plan from the cache and the reference's answer.
func TestBindJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := range 3000 {
		ins := rel.NewInstance()
		card := map[string]int{}
		for _, pred := range bindJoinPreds {
			arity := bindJoinArities[pred]
			ins.EnsureRelation(pred, arity)
			for range min(rng.Intn(5), 1) * rng.Intn(16) {
				t := make(rel.Tuple, arity)
				for i := range t {
					t[i] = fmt.Sprint(rng.Intn(4))
				}
				ins.MustAdd(pred, t...)
			}
			card[pred] = rng.Intn(40)
		}
		q := randomBindJoinCQ(rng)
		cards := make([]int, len(q.Body))
		for i, a := range q.Body {
			cards[i] = card[a.Pred]
		}
		want, wantErr := rel.EvalCQ(q, ins)
		var calls []fetchCall
		pc := NewPlanCache()
		p, err := pc.Plan(q, cards)
		if err != nil {
			t.Fatalf("trial %d, %s: %v", trial, q, err)
		}
		got, err := BindJoin(p, q, refFetch(q, ins, rng, rng.Intn(2) == 0, &calls))
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("trial %d, %s over\n%s:\n%s", trial, q, ins, fmt.Sprintf(format, args...))
		}
		if (err != nil) != (wantErr != nil) {
			fail("error %v, reference's %v", err, wantErr)
		}
		if err == nil && !slices.EqualFunc(got, want, rel.Tuple.Equal) {
			fail("answer %v, reference's %v", got, want)
		}
		q2 := permuteConstants(q)
		want2, wantErr2 := rel.EvalCQ(q2, ins)
		if p2, err := pc.Plan(q2, cards); err != nil || (p2 != p) != (len(p.lateComps) > 0) {
			fail("sibling %s: plan %p (%v), the first's %p", q2, p2, err, p)
		}
		var calls2 []fetchCall
		got2, err := BindJoin(p, q2, refFetch(q2, ins, rng, rng.Intn(2) == 0, &calls2))
		if (err != nil) != (wantErr2 != nil) || (err == nil && !slices.EqualFunc(got2, want2, rel.Tuple.Equal)) {
			fail("sibling %s: answer %v (%v), reference's %v (%v)", q2, got2, err, want2, wantErr2)
		}

		order := greedyOrder(q.Body, cards)
		for _, c := range q.Comps {
			if len(c.Vars(nil)) == 0 && !c.Op.EvalConst(c.L, c.R) && len(calls) > 0 {
				fail("%d fetches under the false comparison %s", len(calls), c)
			}
		}
		for i, c := range calls {
			if !slices.Equal(c.keyPos, c.keyPos0) || !slices.EqualFunc(c.keys, c.keys0, slices.Equal) ||
				!slices.EqualFunc(c.rows, c.rows0, rel.Tuple.Equal) {
				fail("fetch %d of %s: its keys or rows were written to", i, q.Body[c.atom])
			}
			if c.atom != order[i] {
				fail("fetch %d is atom %d, %s; the cardinality order's is atom %d, %s", i, c.atom, q.Body[c.atom], order[i], q.Body[order[i]])
			}
			if slices.ContainsFunc(c.keyPos, func(p int) bool { return q.Body[c.atom].Args[p].IsConst() }) {
				fail("fetch %d of %s: a constant's position among the key positions %v", i, q.Body[c.atom], c.keyPos)
			}
			seen := map[string]bool{}
			for _, k := range c.keys {
				if len(k) != len(c.keyPos) || seen[strings.Join(k, "\x00")] {
					fail("fetch %d of %s: keys %v at %v", i, q.Body[c.atom], c.keys, c.keyPos)
				}
				seen[strings.Join(k, "\x00")] = true
			}
			if i > 0 {
				if rows, _ := rel.EvalCQ(prefixQuery(q, order[:i]), ins); len(rows) == 0 {
					fail("fetch %d of %s after the partial emptied", i, q.Body[c.atom])
				}
			}
		}
		if n := len(calls); err == nil && n > 0 && n < len(q.Body) {
			if rows, _ := rel.EvalCQ(prefixQuery(q, order[:n]), ins); len(rows) > 0 {
				fail("the join stopped after %d fetches on a non-empty partial", n)
			}
		}
	}
}

// TestBindJoinDropsWhatTheAtomRejects pins each of BindJoin's own checks
// on one fetch that returns a row the atom rejects, and its comparison
// gates: a false variable-free comparison fetches nothing, and a
// comparison on a variable the body never binds is an error exactly when
// a complete match exists.
func TestBindJoinDropsWhatTheAtomRejects(t *testing.T) {
	for _, tc := range []struct {
		name, q string
		rows    []rel.Tuple // what every fetch returns
		want    []rel.Tuple
		fetches int
		err     bool
	}{
		{"constant", `q(x) :- A(x, "c")`, []rel.Tuple{{"1", "c"}, {"2", "d"}}, []rel.Tuple{{"1"}}, 1, false},
		{"arity", `q(x) :- A(x)`, []rel.Tuple{{"1"}, {"2", "extra"}}, []rel.Tuple{{"1"}}, 1, false},
		{"repeat", `q(x) :- A(x, x)`, []rel.Tuple{{"1", "1"}, {"2", "3"}}, []rel.Tuple{{"1"}}, 1, false},
		{"key", `q(x, y) :- A(x), B(x, y)`, []rel.Tuple{{"1"}, {"1", "y"}, {"2", "z"}}, []rel.Tuple{{"1", "y"}}, 2, false},
		{"false constants", `q(x) :- A(x), "a" = "b"`, []rel.Tuple{{"1"}}, nil, 0, false},
		{"true constants", `q(x) :- A(x), "a" < "b"`, []rel.Tuple{{"1"}}, []rel.Tuple{{"1"}}, 1, false},
		{"unbound, matched", `q(x) :- A(x), w < "5"`, []rel.Tuple{{"1"}}, nil, 1, true},
		{"unbound, unmatched", `q(x) :- A(x, "c"), w < "5"`, []rel.Tuple{{"1", "d"}}, nil, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := parser.ParseQuery(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			fetches := 0
			got, err := bindJoin(q, make([]int, len(q.Body)), func(int, []int, [][]string) ([]rel.Tuple, error) {
				fetches++
				return tc.rows, nil
			})
			if (err != nil) != tc.err || fetches != tc.fetches || !slices.EqualFunc(got, tc.want, rel.Tuple.Equal) {
				t.Fatalf("answer %v, error %v after %d fetches; want %v, error %v after %d",
					got, err, fetches, tc.want, tc.err, tc.fetches)
			}
		})
	}
}
