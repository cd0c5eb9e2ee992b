package lang_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/swarm"
	"repro/pdms"
)

// frozenCanonical is CQ.Canonical as it was written with fmt.Sprintf and a
// map, with constants length-prefixed since: the reference the current
// implementation must match byte for byte, since Canonical keys the
// engine's plan cache and the reformulation and answer caches.
func frozenCanonical(q lang.CQ) string {
	num := map[string]int{}
	next := 0
	canonTerm := func(t lang.Term) string {
		if t.IsConst() {
			return fmt.Sprintf("=%d:%s", len(t.Name), t.Name)
		}
		i, ok := num[t.Name]
		if !ok {
			i = next
			next++
			num[t.Name] = i
		}
		return fmt.Sprintf("?%d", i)
	}
	var sb strings.Builder
	writeAtom := func(a lang.Atom) {
		sb.WriteString(a.Pred)
		sb.WriteByte('(')
		for i, t := range a.Args {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(canonTerm(t))
		}
		sb.WriteByte(')')
	}
	writeAtom(q.Head)
	sb.WriteString(":-")
	for i, a := range q.Body {
		if i > 0 {
			sb.WriteByte(',')
		}
		writeAtom(a)
	}
	for _, c := range q.Comps {
		sb.WriteByte(',')
		sb.WriteString(canonTerm(c.L))
		sb.WriteString(c.Op.String())
		sb.WriteString(canonTerm(c.R))
	}
	return sb.String()
}

// canonicalCorpus collects queries and their rewritings: swarm entry and
// per-peer queries with the rewritings a network loaded from the swarm's
// specification gives them, the query statements of testdata/*.ppl with
// theirs, FuzzParseQuery's committed corpus, and queries with more
// variables than the implementation keeps on its stack.
func canonicalCorpus(t *testing.T) []lang.CQ {
	t.Helper()
	var out []lang.CQ
	addRewritings := func(src string, texts []string) {
		n, err := pdms.Load(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, text := range texts {
			q, err := parser.ParseQuery(text)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, q)
			r, err := n.Reformulate(text)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			out = append(out, r.Rewriting.Disjuncts...)
		}
	}
	for _, p := range []swarm.Params{
		{Peers: 8, Topology: swarm.Chain, Seed: 1},
		{Peers: 12, Topology: swarm.Star, Seed: 1},
		{Peers: 12, Topology: swarm.SmallWorld, Seed: 2},
		{Peers: 6, Topology: swarm.SmallWorld, QueryLen: 3, Seed: 4},
		{Peers: 13, Topology: swarm.SmallWorld, StoreCoverage: 0.5, Seed: 3},
	} {
		spec, err := swarm.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		texts := []string{spec.Query}
		for peer := 0; peer < p.Peers && peer < 4; peer++ {
			texts = append(texts, fmt.Sprintf("q(y) :- %s(%q, y)", swarm.PeerRel(peer), "v1"))
		}
		addRewritings(spec.Mediator, texts)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ppl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specifications: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		res, err := parser.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		var texts []string
		for _, q := range res.Queries {
			texts = append(texts, q.String())
		}
		addRewritings(string(src), texts)
	}
	seeds, err := filepath.Glob(filepath.Join("..", "parser", "testdata", "fuzz", "FuzzParseQuery", "*"))
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no FuzzParseQuery corpus: %v", err)
	}
	for _, f := range seeds {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, arg, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
		text, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if q, err := parser.ParseQuery(text); err == nil {
			out = append(out, q)
		}
	}
	var wide, long strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&wide, ", A:R(x%d, x%d, \"c%d\")", i, i+1, i)
		fmt.Fprintf(&long, ", x%d != x%d", i, (i*7)%40)
	}
	for _, text := range []string{
		`q(x) :- A:R(x)`,
		`q("lit", x, x) :- A:R(x, y), B:S(y, "k", z), z < "9", "1" = "1"`,
		"q(x0, x40) :- A:R(x0, x0, \"s\")" + wide.String(),
		"q(x0) :- A:R(x0, x39, \"s\")" + wide.String() + long.String(),
	} {
		q, err := parser.ParseQuery(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		out = append(out, q)
	}
	return out
}

// TestCanonicalMatchesFrozen pins Canonical's output byte for byte to the
// implementation it replaced.
func TestCanonicalMatchesFrozen(t *testing.T) {
	corpus := canonicalCorpus(t)
	for _, q := range corpus {
		if got, want := q.Canonical(), frozenCanonical(q); got != want {
			t.Fatalf("Canonical(%s)\n got %q\nwant %q", q, got, want)
		}
	}
	if len(corpus) < 200 {
		t.Fatalf("corpus holds only %d queries", len(corpus))
	}
}

// randomQuery draws a query over two predicates whose arguments mix
// variables and constants, the constants from an alphabet of the bytes a
// canonical string is made of, and a comparison now and then.
func randomQuery(rng *rand.Rand) lang.CQ {
	const alphabet = `a=?$:,()0123456789<>!"`
	term := func() lang.Term {
		if rng.Intn(2) == 0 {
			return lang.Var(string(rune('x' + rng.Intn(3))))
		}
		b := make([]byte, rng.Intn(5))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return lang.Const(string(b))
	}
	atom := func(pred string) lang.Atom {
		a := lang.Atom{Pred: pred}
		for range 1 + rng.Intn(3) {
			a.Args = append(a.Args, term())
		}
		return a
	}
	q := lang.CQ{Head: atom("q")}
	for range 1 + rng.Intn(3) {
		q.Body = append(q.Body, atom([]string{"P:R", "P:S"}[rng.Intn(2)]))
	}
	if rng.Intn(4) == 0 {
		q.Comps = []lang.Comparison{{Op: lang.CompOp(rng.Intn(6)), L: term(), R: term()}}
	}
	return q
}

// constSlots returns pointers to every constant of q, atoms and
// comparisons alike.
func constSlots(q *lang.CQ) []*lang.Term {
	var out []*lang.Term
	atom := func(a lang.Atom) {
		for i := range a.Args {
			if a.Args[i].IsConst() {
				out = append(out, &a.Args[i])
			}
		}
	}
	atom(q.Head)
	for _, a := range q.Body {
		atom(a)
	}
	for i := range q.Comps {
		for _, t := range []*lang.Term{&q.Comps[i].L, &q.Comps[i].R} {
			if t.IsConst() {
				out = append(out, t)
			}
		}
	}
	return out
}

// TestCanonicalTellsConstantsApart changes one constant of random queries
// at a time: the canonical string must change with it, however the new
// value mixes the bytes Canonical writes around constants. The two queries
// that shared one string when constants were written raw are the first
// case.
func TestCanonicalTellsConstantsApart(t *testing.T) {
	a, err := parser.ParseQuery(`q(y) :- P:R("a,=b", y), P:S(y)`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parser.ParseQuery(`q(y) :- P:R("a", "b,?0"), P:S(y)`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Canonical() == b.Canonical() {
		t.Fatalf("%s and %s share the canonical string %q", a, b, a.Canonical())
	}
	rng := rand.New(rand.NewSource(1))
	for range 5000 {
		q := randomQuery(rng)
		slots := constSlots(&q)
		if len(slots) == 0 {
			continue
		}
		before := q.Canonical()
		slot := slots[rng.Intn(len(slots))]
		old := *slot
		*slot = randomQuery(rng).Head.Args[0]
		if !slot.IsConst() || slot.Name == old.Name {
			continue
		}
		if after := q.Canonical(); after == before {
			t.Fatalf("changing constant %q to %q leaves the canonical string %q of %s", old.Name, slot.Name, before, q)
		}
	}
}

// TestParameterisedCanonical checks AppendCanonical's parameterised form
// against Params: two random queries share it exactly when they have the
// same canonical string once each atom constant is replaced by its number
// in Params, and comparison constants stay written out.
func TestParameterisedCanonical(t *testing.T) {
	numbered := func(q lang.CQ) lang.CQ {
		ps := q.Params(nil)
		out := q.Clone()
		for _, a := range append([]lang.Atom{out.Head}, out.Body...) {
			for i, arg := range a.Args {
				if arg.IsConst() {
					a.Args[i] = lang.Const(fmt.Sprintf("#%d", slices.Index(ps, arg.Name)))
				}
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(2))
	for range 5000 {
		q1, q2 := randomQuery(rng), randomQuery(rng)
		same := string(q1.AppendCanonical(nil, true)) == string(q2.AppendCanonical(nil, true))
		if want := numbered(q1).Canonical() == numbered(q2).Canonical(); same != want {
			t.Fatalf("%s and %s: parameterised strings equal = %v, want %v", q1, q2, same, want)
		}
	}
	q, err := parser.ParseQuery(`q("k", y) :- P:R("a", y, "k"), P:S(y, "a"), y < "k"`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(q.AppendCanonical([]byte("7|"), true)), `7|q($0,?0):-P:R($1,?0,$0),P:S(?0,$1),?0<=1:k`; got != want {
		t.Fatalf("AppendCanonical(params) = %q, want %q", got, want)
	}
	if got := q.Params(nil); !slices.Equal(got, []string{"k", "a"}) {
		t.Fatalf("Params = %q, want [k a]", got)
	}
}
