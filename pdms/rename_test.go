package pdms

import (
	"testing"

	"repro/internal/lang"
	"repro/internal/parser"
)

// TestRewritingInThePosedVariableNames: the reformulation cache keys a query
// on a canonical string that numbers variables instead of naming them, so
// the queries of one key may name their variables differently. Each must
// get the rewriting in its own names, exactly as an uncached reformulation
// of it prints — on a shape's entry (constants lifted), on an exact key's
// (a comparison keeps the constants in), where the posed names swap the
// cached query's, and past a definitional mapping's own variables.
func TestRewritingInThePosedVariableNames(t *testing.T) {
	const direct = "storage A.r(x, y) in A:R(x, y)\n"
	for _, tc := range []struct {
		spec  string
		texts []string
	}{
		{direct, []string{`q(y) :- A:R("1", y)`, `q(z) :- A:R("2", z)`, `q(w) :- A:R("1", w)`}},
		{direct, []string{`q(x, y) :- A:R(x, y), x < y`, `q(y, x) :- A:R(y, x), y < x`, `q(a, b) :- A:R(a, b), a < b`}},
		{direct, []string{`q(y) :- A:R(x, y), A:R(y, "c")`, `q(x) :- A:R(y, x), A:R(x, "d")`}},
		{direct + "define B:S(x) :- A:R(x, z)\n", []string{`q(x) :- B:S(x)`, `q(z) :- B:S(z)`, `q(x) :- B:S(x)`}},
	} {
		n, err := Load(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, text := range tc.texts {
			got, err := n.Reformulate(text)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Load(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Reformulate(text)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rewriting.String() != want.Rewriting.String() {
				t.Errorf("after %v, Reformulate(%s) =\n%s\nwant\n%s", tc.texts, text, got.Rewriting, want.Rewriting)
			}
		}
	}
}

// TestRewritingRenamesApartFromItsOwnVariables: a posed variable named like
// one of the rewriting's own variables — one the reformulation introduced,
// which a parsed query cannot name (core prints them stem#id) — must not
// capture it: the own variable is renamed apart, and the cached rewriting
// stays as it was. A query naming its variables as the cached one did gets
// the cached rewriting itself, with no copy.
func TestRewritingRenamesApartFromItsOwnVariables(t *testing.T) {
	n, err := Load("storage A.r(x, y) in A:R(x, y)\ndefine B:S(x) :- A:R(x, z)\n")
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery(`q(x) :- B:S(x)`)
	if err != nil {
		t.Fatal(err)
	}
	n.mu.RLock()
	_, e, err := n.reformulateLocked(q.String(), nil)
	n.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	cached := e.ref.Rewriting.String()
	if len(e.ref.Rewriting.Disjuncts) != 1 {
		t.Fatalf("rewriting %s, want one disjunct", cached)
	}
	own := e.ref.Rewriting.Disjuncts[0].Body[0].Args[1]
	if !own.IsVar() || own.Name == "x" {
		t.Fatalf("rewriting %s has no variable of its own", cached)
	}
	got := e.rewriting(q.Apply(lang.Subst{"x": own}))
	if len(got.Disjuncts) != 1 {
		t.Fatalf("renamed rewriting %s, want one disjunct", got)
	}
	d := got.Disjuncts[0]
	if d.Head.Args[0] != own || d.Body[0].Args[0] != own {
		t.Errorf("renamed rewriting %s does not answer in the posed variable %s", got, own.Name)
	}
	if w := d.Body[0].Args[1]; !w.IsVar() || w == own || w.Name == "x" {
		t.Errorf("renamed rewriting %s: own variable %s became %s, not renamed apart", got, own.Name, w)
	}
	if s := e.ref.Rewriting.String(); s != cached {
		t.Errorf("renaming changed the cached rewriting: %s, was %s", s, cached)
	}
	same := e.rewriting(q)
	if &same.Disjuncts[0] != &e.ref.Rewriting.Disjuncts[0] {
		t.Error("a query naming its variables as the cached one got a copy of the rewriting")
	}
}

// TestRenamingKeepsFreshNamesApart: when the posed names capture several of
// the rewriting's own variables, each gets a fresh name of its own — none
// equal to a posed name, to another own variable or to another fresh name.
func TestRenamingKeepsFreshNamesApart(t *testing.T) {
	v := lang.Var
	e := &reformEntry{
		vars: []string{"x", "y"},
		ref: Reformulation{Rewriting: lang.UCQ{Disjuncts: []lang.CQ{{
			Head: lang.NewAtom("q", v("x"), v("y")),
			Body: []lang.Atom{lang.NewAtom("A.r", v("x"), v("y"), v("a"), v("a'"), v("b"))},
		}}}},
	}
	ren := e.renaming([]string{"a", "a'"})
	if ren["x"] != "a" || ren["y"] != "a'" {
		t.Fatalf("renaming %v does not map the query's variables to the posed ones", ren)
	}
	seen := map[string]string{}
	for _, old := range []string{"x", "y", "a", "a'", "b"} {
		name := old
		if n, ok := ren[old]; ok {
			name = n
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("renaming %v sends %s and %s to %s", ren, prev, old, name)
		}
		seen[name] = old
	}
}
