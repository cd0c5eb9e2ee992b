package core

import (
	"testing"

	"repro/internal/lang"
	"repro/internal/ppl"
)

func v(n string) lang.Term                    { return lang.Var(n) }
func k(n string) lang.Term                    { return lang.Const(n) }
func atm(p string, ts ...lang.Term) lang.Atom { return lang.NewAtom(p, ts...) }

// langMCD is an MCD with its symbols turned back into names.
type langMCD struct {
	covered []int
	atom    lang.Atom
	export  lang.Subst
	comps   []lang.Comparison
}

// form computes the MCDs of goals[target] against the view head :- body,
// comps through a catalog holding that view alone; required names the
// variables the context must recover.
func form(t *testing.T, goals []lang.Atom, target int, required []string, head lang.Atom, body []lang.Atom, comps ...lang.Comparison) []langMCD {
	t.Helper()
	c := &catalog{pdms: ppl.New(), predID: map[string]int32{}, constID: map[string]int{}}
	view := c.newView("v", 0, lang.CQ{Head: head, Body: body, Comps: comps})
	for _, g := range goals {
		c.pred(g.Pred)
	}
	b := &builder{cat: c}
	req := lang.Atom{Pred: "q"}
	for _, name := range required {
		req.Args = append(req.Args, v(name))
	}
	cq, err := b.compileQuery(lang.CQ{Head: req, Body: goals})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*node, len(cq.body))
	for i := range cq.body {
		nodes[i] = &node{label: cq.body[i]}
	}
	start, end := b.formMCDs(nodes, nodes[target], cq.head.args, view)
	var out []langMCD
	for _, m := range b.mcds[start:end] {
		lm := langMCD{covered: m.covered, atom: b.langAtom(m.atom), export: lang.NewSubst(), comps: b.langComps(nil, m.comps)}
		for _, e := range m.export {
			lm.export[b.langTerm(e.v).Name] = b.langTerm(e.t)
		}
		out = append(out, lm)
	}
	return out
}

// The worked example from Section 4.1 of the paper (borrowed from the
// MiniCon paper): Q(X,Y) :- e1(X,Z), e2(Z,Y), e3(X,Y) with
// V1(A,B) :- e1(A,C), e2(C,B).
func TestFormPaperExample(t *testing.T) {
	goals := []lang.Atom{
		atm("e1", v("X"), v("Z")),
		atm("e2", v("Z"), v("Y")),
		atm("e3", v("X"), v("Y")),
	}
	mcds := form(t, goals, 0, []string{"X", "Y"}, atm("V1", v("A"), v("B")),
		[]lang.Atom{atm("e1", v("A"), v("C")), atm("e2", v("C"), v("B"))})
	if len(mcds) != 1 {
		t.Fatalf("mcds = %v", mcds)
	}
	m := mcds[0]
	// Z maps to the view's existential C, so the MCD must cover both e1 and
	// e2 subgoals.
	if len(m.covered) != 2 || m.covered[0] != 0 || m.covered[1] != 1 {
		t.Fatalf("covered = %v", m.covered)
	}
	// The atom exposes X and Y.
	if !m.atom.Equal(atm("V1", v("X"), v("Y"))) {
		t.Fatalf("atom = %v", m.atom)
	}
	if len(m.export) != 0 {
		t.Fatalf("export = %v", m.export)
	}
}

// V3(U) :- e1(U,Z): the view projects Z away, so it is useless for covering
// e1(X,Z) when Z is needed elsewhere (the paper's V3 remark).
func TestFormUselessViewRejected(t *testing.T) {
	goals := []lang.Atom{
		atm("e1", v("X"), v("Z")),
		atm("e2", v("Z"), v("Y")),
	}
	mcds := form(t, goals, 0, []string{"X", "Y"}, atm("V3", v("U")), []lang.Atom{atm("e1", v("U"), v("W"))})
	if len(mcds) != 0 {
		t.Fatalf("useless view produced MCDs: %v", mcds)
	}
}

// A view that projects a variable appearing in no other goal is usable; the
// hidden variable is simply existential.
func TestFormProjectionOfLocalVarOK(t *testing.T) {
	goals := []lang.Atom{atm("e1", v("X"), v("Z"))}
	mcds := form(t, goals, 0, []string{"X"}, atm("V", v("U")), []lang.Atom{atm("e1", v("U"), v("W"))})
	if len(mcds) != 1 {
		t.Fatalf("mcds = %v", mcds)
	}
	if !mcds[0].atom.Equal(atm("V", v("X"))) {
		t.Fatalf("atom = %v", mcds[0].atom)
	}
}

// SameSkill(f1,f2) ⊆ Skill(f1,s), Skill(f2,s): covering Skill(f1,s) must
// produce two MCDs (head order and reversed), the paper's "apply r1 a second
// time with the head variables reversed" point.
func TestFormSymmetricViewTwoMCDs(t *testing.T) {
	goals := []lang.Atom{
		atm("Skill", v("f1"), v("s")),
		atm("Skill", v("f2"), v("s")),
	}
	mcds := form(t, goals, 0, []string{"f1", "f2"}, atm("SameSkill", v("a"), v("b")),
		[]lang.Atom{atm("Skill", v("a"), v("c")), atm("Skill", v("b"), v("c"))})
	// Besides the direct and reversed MCDs, MiniCon also produces the
	// degenerate ones that map both subgoals onto the same view atom
	// (forcing f1 = f2); those are sound and needed for completeness when
	// no other covering exists, so we require at least the two canonical
	// MCDs and that every MCD covers both subgoals.
	for _, m := range mcds {
		if len(m.covered) != 2 {
			t.Fatalf("covered = %v (s is view-existential, both subgoals must be covered)", m.covered)
		}
	}
	got := map[string]bool{}
	for _, m := range mcds {
		if len(m.export) == 0 {
			got[m.atom.String()] = true
		}
	}
	if !got["SameSkill(f1, f2)"] || !got["SameSkill(f2, f1)"] {
		t.Fatalf("canonical MCDs missing: %v", mcds)
	}
}

// A view with a constant restricts usage: V(x) ⊆ R(x, "a") can only cover
// R(y, "a") or R(y, z) by binding z to "a" — the binding must be exported.
func TestFormConstantExport(t *testing.T) {
	goals := []lang.Atom{atm("R", v("y"), v("z"))}
	mcds := form(t, goals, 0, []string{"y", "z"}, atm("V", v("x")), []lang.Atom{atm("R", v("x"), k("a"))})
	if len(mcds) != 1 {
		t.Fatalf("mcds = %v", mcds)
	}
	if m := mcds[0]; m.export.Apply(v("z")) != k("a") {
		t.Fatalf("export = %v", m.export)
	}
}

// Required variable bound to a constant by the view is recoverable.
func TestFormRequiredConstOK(t *testing.T) {
	goals := []lang.Atom{atm("R", v("y"))}
	mcds := form(t, goals, 0, []string{"y"}, atm("V", v("u")), []lang.Atom{atm("R", k("c")), atm("S", v("u"))})
	if len(mcds) != 1 {
		t.Fatalf("mcds = %v", mcds)
	}
	if mcds[0].export.Apply(v("y")) != k("c") {
		t.Fatalf("export = %v", mcds[0].export)
	}
}

// Repeated variables in the goal force a join inside the view.
func TestFormRepeatedGoalVar(t *testing.T) {
	goals := []lang.Atom{atm("R", v("x"), v("x"))}
	mcds := form(t, goals, 0, []string{"x"}, atm("V", v("a"), v("b")), []lang.Atom{atm("R", v("a"), v("b"))})
	if len(mcds) != 1 {
		t.Fatalf("mcds = %v", mcds)
	}
	// Both head positions must expose x.
	if !mcds[0].atom.Equal(atm("V", v("x"), v("x"))) {
		t.Fatalf("atom = %v", mcds[0].atom)
	}
}

// Views carry their comparisons into the MCD, instantiated to goal terms.
func TestFormCarriesComparisons(t *testing.T) {
	goals := []lang.Atom{atm("R", v("x"), v("y"))}
	mcds := form(t, goals, 0, []string{"x", "y"}, atm("V", v("a"), v("b")), []lang.Atom{atm("R", v("a"), v("b"))},
		lang.Comparison{Op: lang.OpLT, L: v("a"), R: k("10")})
	if len(mcds) != 1 || len(mcds[0].comps) != 1 {
		t.Fatalf("mcds = %v", mcds)
	}
	c := mcds[0].comps[0]
	if c.L != v("x") || c.Op != lang.OpLT || c.R != k("10") {
		t.Fatalf("comp = %v", c)
	}
}

// No MCD when predicates do not match.
func TestFormNoMatch(t *testing.T) {
	goals := []lang.Atom{atm("R", v("x"))}
	if mcds := form(t, goals, 0, []string{"x"}, atm("V", v("a")), []lang.Atom{atm("S", v("a"))}); len(mcds) != 0 {
		t.Fatalf("mcds = %v", mcds)
	}
}

// Constant clash between goal and view blocks the MCD.
func TestFormConstantClash(t *testing.T) {
	goals := []lang.Atom{atm("R", k("1"))}
	if mcds := form(t, goals, 0, nil, atm("V", v("a")), []lang.Atom{atm("R", k("2")), atm("S", v("a"))}); len(mcds) != 0 {
		t.Fatalf("mcds = %v", mcds)
	}
}

// Don't-care view head positions become fresh variables.
func TestFormDontCareHead(t *testing.T) {
	goals := []lang.Atom{atm("R", v("x"))}
	mcds := form(t, goals, 0, []string{"x"}, atm("V", v("a"), v("b")), []lang.Atom{atm("R", v("a")), atm("S", v("b"))})
	if len(mcds) != 1 {
		t.Fatalf("mcds = %v", mcds)
	}
	args := mcds[0].atom.Args
	if args[0] != v("x") || !args[1].IsVar() || args[1] == v("x") {
		t.Fatalf("atom = %v", mcds[0].atom)
	}
}
