package lang

import "testing"

func TestSubstApplyChain(t *testing.T) {
	s := Subst{"x": Var("y"), "y": Const("c")}
	if got := s.Apply(Var("x")); got != Const("c") {
		t.Fatalf("chain apply = %v", got)
	}
	if got := s.Apply(Var("z")); got != Var("z") {
		t.Fatalf("unbound apply = %v", got)
	}
	if got := s.Apply(Const("k")); got != Const("k") {
		t.Fatalf("const apply = %v", got)
	}
}

func TestSubstCloneIndependent(t *testing.T) {
	s := Subst{"x": Const("1")}
	c := s.Clone()
	c["y"] = Const("2")
	if _, ok := s["y"]; ok {
		t.Fatal("clone aliases original")
	}
}

func TestMatchOneWay(t *testing.T) {
	// Pattern vars bind; target vars are rigid.
	pat := NewAtom("R", Var("x"), Var("x"))
	tgt := NewAtom("R", Var("a"), Var("a"))
	s, ok := Match(pat, tgt, nil)
	if !ok || s.Apply(Var("x")) != Var("a") {
		t.Fatalf("match = %v %v", s, ok)
	}
	// Target var may not be bound: x/x cannot match distinct rigid a,b.
	if _, ok := Match(pat, NewAtom("R", Var("a"), Var("b")), nil); ok {
		t.Fatal("match should fail: pattern join over distinct rigid vars")
	}
	// Constant in pattern must equal target.
	if _, ok := Match(NewAtom("R", Const("1")), NewAtom("R", Const("2")), nil); ok {
		t.Fatal("constant mismatch should fail")
	}
	// A match is one-way: it must not bind target variables.
	if _, ok := Match(NewAtom("R", Const("1")), NewAtom("R", Var("a")), nil); ok {
		t.Fatal("match must not bind target-side variables")
	}
}
