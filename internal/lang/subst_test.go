package lang

import (
	"math/rand"
	"testing"
)

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

func TestUnifyBasic(t *testing.T) {
	tests := []struct {
		name string
		a, b Atom
		ok   bool
	}{
		{"same consts", NewAtom("R", Const("1")), NewAtom("R", Const("1")), true},
		{"diff consts", NewAtom("R", Const("1")), NewAtom("R", Const("2")), false},
		{"var const", NewAtom("R", Var("x")), NewAtom("R", Const("2")), true},
		{"pred mismatch", NewAtom("R", Var("x")), NewAtom("S", Var("x")), false},
		{"arity mismatch", NewAtom("R", Var("x")), NewAtom("R", Var("x"), Var("y")), false},
		{"join forces equal", NewAtom("R", Var("x"), Var("x")), NewAtom("R", Const("1"), Const("2")), false},
		{"join ok", NewAtom("R", Var("x"), Var("x")), NewAtom("R", Const("1"), Const("1")), true},
		{"var var", NewAtom("R", Var("x"), Var("y")), NewAtom("R", Var("y"), Const("3")), true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s, ok := Unify(tc.a, tc.b, nil)
			if ok != tc.ok {
				t.Fatalf("Unify ok = %v, want %v (s=%v)", ok, tc.ok, s)
			}
			if ok {
				if got, want := s.ApplyAtom(tc.a), s.ApplyAtom(tc.b); !got.Equal(want) {
					t.Fatalf("unifier does not unify: %v vs %v", got, want)
				}
			}
		})
	}
}

func TestUnifyDoesNotMutateBase(t *testing.T) {
	base := Subst{"z": Const("9")}
	_, ok := Unify(NewAtom("R", Var("x")), NewAtom("R", Const("1")), base)
	if !ok {
		t.Fatal("unify failed")
	}
	if len(base) != 1 {
		t.Fatalf("base mutated: %v", base)
	}
}

func TestUnifyRespectsBase(t *testing.T) {
	base := Subst{"x": Const("1")}
	if _, ok := Unify(NewAtom("R", Var("x")), NewAtom("R", Const("2")), base); ok {
		t.Fatal("unify should honor base binding x=1")
	}
	s, ok := Unify(NewAtom("R", Var("x")), NewAtom("R", Const("1")), base)
	if !ok || s.Apply(Var("x")) != Const("1") {
		t.Fatalf("unify with base: %v %v", s, ok)
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
	// Unlike Unify, match must not bind target variables.
	if _, ok := Match(NewAtom("R", Const("1")), NewAtom("R", Var("a")), nil); ok {
		t.Fatal("match must not bind target-side variables")
	}
}

// Property: for random unifiable atom pairs, the MGU really unifies them.
func TestUnifyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randTerm := func() Term {
		if rng.Intn(2) == 0 {
			return Var(string(rune('u' + rng.Intn(6))))
		}
		return Const(string(rune('0' + rng.Intn(4))))
	}
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(4)
		a := Atom{Pred: "P", Args: make([]Term, n)}
		b := Atom{Pred: "P", Args: make([]Term, n)}
		for j := 0; j < n; j++ {
			a.Args[j], b.Args[j] = randTerm(), randTerm()
		}
		if s, ok := Unify(a, b, nil); ok {
			if !s.ApplyAtom(a).Equal(s.ApplyAtom(b)) {
				t.Fatalf("MGU fails to unify %v and %v under %v", a, b, s)
			}
		}
	}
}
