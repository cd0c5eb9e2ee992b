package lang

import (
	"strings"
	"testing"
)

func cq(head Atom, body ...Atom) CQ { return CQ{Head: head, Body: body} }

func TestCQVarsAndExistentials(t *testing.T) {
	q := cq(NewAtom("q", Var("x")),
		NewAtom("R", Var("x"), Var("y")),
		NewAtom("S", Var("y"), Var("z")))
	vs := q.Vars()
	if len(vs) != 3 {
		t.Fatalf("Vars = %v", vs)
	}
	if vs[0] != Var("x") || vs[1] != Var("y") || vs[2] != Var("z") {
		t.Fatalf("Vars order = %v", vs)
	}
}

func TestCQIsSafe(t *testing.T) {
	safe := cq(NewAtom("q", Var("x")), NewAtom("R", Var("x")))
	if !safe.IsSafe() {
		t.Fatal("safe query reported unsafe")
	}
	unsafe := cq(NewAtom("q", Var("x")), NewAtom("R", Var("y")))
	if unsafe.IsSafe() {
		t.Fatal("unsafe query reported safe")
	}
}

func TestCQHasProjection(t *testing.T) {
	proj := cq(NewAtom("q", Var("x")), NewAtom("R", Var("x"), Var("y")))
	if !proj.HasProjection() {
		t.Fatal("projection not detected")
	}
	noProj := cq(NewAtom("q", Var("x"), Var("y")), NewAtom("R", Var("x"), Var("y")))
	if noProj.HasProjection() {
		t.Fatal("projection-free query misreported")
	}
}

func TestCQCloneDeep(t *testing.T) {
	q := cq(NewAtom("q", Var("x")), NewAtom("R", Var("x"), Var("y")))
	q.Comps = []Comparison{{Op: OpLT, L: Var("y"), R: Const("5")}}
	c := q.Clone()
	c.Body[0].Args[0] = Const("z")
	c.Comps[0].Op = OpGE
	if q.Body[0].Args[0] != Var("x") || q.Comps[0].Op != OpLT {
		t.Fatal("Clone shares storage with original")
	}
}

func TestCQString(t *testing.T) {
	q := cq(NewAtom("q", Var("x")), NewAtom("R", Var("x"), Const("a")))
	q.Comps = []Comparison{{Op: OpNE, L: Var("x"), R: Const("0")}}
	got := q.String()
	want := `q(x) :- R(x, "a"), x != 0`
	if got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	fact := CQ{Head: NewAtom("p", Const("1"))}
	if fact.String() != "p(1)" {
		t.Fatalf("fact String = %q", fact.String())
	}
}

func TestCQCanonicalRenamingInvariance(t *testing.T) {
	q1 := cq(NewAtom("q", Var("x")), NewAtom("R", Var("x"), Var("y")))
	q2 := cq(NewAtom("q", Var("u")), NewAtom("R", Var("u"), Var("w")))
	if q1.Canonical() != q2.Canonical() {
		t.Fatal("alpha-equivalent queries must share canonical form")
	}
	q3 := cq(NewAtom("q", Var("x")), NewAtom("R", Var("y"), Var("x")))
	if q1.Canonical() == q3.Canonical() {
		t.Fatal("structurally different queries must differ canonically")
	}
	// Constants distinguish.
	q4 := cq(NewAtom("q", Var("x")), NewAtom("R", Var("x"), Const("y")))
	if q1.Canonical() == q4.Canonical() {
		t.Fatal("const vs var must differ canonically")
	}
}

func TestCQPreds(t *testing.T) {
	q := cq(NewAtom("q", Var("x")),
		NewAtom("R", Var("x")), NewAtom("S", Var("x")), NewAtom("R", Var("x")))
	ps := q.Preds()
	if len(ps) != 2 || ps[0] != "R" || ps[1] != "S" {
		t.Fatalf("Preds = %v", ps)
	}
}

func TestCQApplyComps(t *testing.T) {
	q := cq(NewAtom("q", Var("x")), NewAtom("R", Var("x"), Var("y")))
	q.Comps = []Comparison{{Op: OpLT, L: Var("y"), R: Var("z")}}
	s := Subst{"y": Const("3"), "z": Const("4")}
	r := q.Apply(s)
	if r.Comps[0].L != Const("3") || r.Comps[0].R != Const("4") {
		t.Fatalf("Apply did not reach comparisons: %v", r.Comps)
	}
}

func TestUCQValidate(t *testing.T) {
	var u UCQ
	if err := u.Validate(); err != nil {
		t.Fatalf("empty UCQ: %v", err)
	}
	u.Add(cq(NewAtom("q", Var("x")), NewAtom("R", Var("x"))))
	u.Add(cq(NewAtom("q", Var("y")), NewAtom("S", Var("y"))))
	if err := u.Validate(); err != nil {
		t.Fatalf("compatible UCQ: %v", err)
	}
	if u.Len() != 2 {
		t.Fatalf("Len = %d", u.Len())
	}
	u.Add(cq(NewAtom("q", Var("x"), Var("y")), NewAtom("R", Var("x"), Var("y"))))
	if err := u.Validate(); err == nil {
		t.Fatal("arity mismatch not detected")
	}
	if !strings.Contains(u.String(), "\n") {
		t.Fatal("String should be multi-line")
	}
}
