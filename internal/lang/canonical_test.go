package lang_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/swarm"
	"repro/pdms"
)

// frozenCanonical is CQ.Canonical as it was written with fmt.Sprintf and a
// map: the reference the current implementation must match byte for byte,
// since Canonical keys the engine's plan cache and the reformulation
// caches.
func frozenCanonical(q lang.CQ) string {
	num := map[string]int{}
	next := 0
	canonTerm := func(t lang.Term) string {
		if t.IsConst() {
			return "=" + t.Name
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
