package constraints

import (
	"math/rand"
	"testing"

	"repro/internal/lang"
)

func v(name string) lang.Term { return lang.Var(name) }
func k(val string) lang.Term  { return lang.Const(val) }
func c(l lang.Term, op lang.CompOp, r lang.Term) lang.Comparison {
	return lang.Comparison{Op: op, L: l, R: r}
}

func TestSatisfiableBasics(t *testing.T) {
	tests := []struct {
		name string
		s    *Set
		want bool
	}{
		{"empty", New(), true},
		{"nil", nil, true},
		{"x<y", New(c(v("x"), lang.OpLT, v("y"))), true},
		{"x<x", New(c(v("x"), lang.OpLT, v("x"))), false},
		{"x<=x", New(c(v("x"), lang.OpLE, v("x"))), true},
		{"x<y,y<x", New(c(v("x"), lang.OpLT, v("y")), c(v("y"), lang.OpLT, v("x"))), false},
		{"x<=y,y<=x", New(c(v("x"), lang.OpLE, v("y")), c(v("y"), lang.OpLE, v("x"))), true},
		{"x<=y,y<=x,x!=y", New(c(v("x"), lang.OpLE, v("y")), c(v("y"), lang.OpLE, v("x")), c(v("x"), lang.OpNE, v("y"))), false},
		{"x=1,x=2", New(c(v("x"), lang.OpEQ, k("1")), c(v("x"), lang.OpEQ, k("2"))), false},
		{"x=1,x<2", New(c(v("x"), lang.OpEQ, k("1")), c(v("x"), lang.OpLT, k("2"))), true},
		{"x=2,x<1", New(c(v("x"), lang.OpEQ, k("2")), c(v("x"), lang.OpLT, k("1"))), false},
		{"ground true", New(c(k("1"), lang.OpLT, k("2"))), true},
		{"ground false", New(c(k("2"), lang.OpLT, k("1"))), false},
		{"x>5,x<3", New(c(v("x"), lang.OpGT, k("5")), c(v("x"), lang.OpLT, k("3"))), false},
		{"x>=5,x<=5", New(c(v("x"), lang.OpGE, k("5")), c(v("x"), lang.OpLE, k("5"))), true},
		{"x>=5,x<=5,x!=5", New(c(v("x"), lang.OpGE, k("5")), c(v("x"), lang.OpLE, k("5")), c(v("x"), lang.OpNE, k("5"))), false},
		{"chain strict", New(c(v("a"), lang.OpLT, v("b")), c(v("b"), lang.OpLT, v("c")), c(v("c"), lang.OpLE, v("a"))), false},
		{"eq chain const clash", New(c(v("a"), lang.OpEQ, v("b")), c(v("b"), lang.OpEQ, v("d")), c(v("a"), lang.OpEQ, k("1")), c(v("d"), lang.OpEQ, k("2"))), false},
		{"between consts", New(c(k("1"), lang.OpLT, v("x")), c(v("x"), lang.OpLT, k("2"))), true},
		{"x<y,y<1,x>0 dense ok", New(c(v("x"), lang.OpLT, v("y")), c(v("y"), lang.OpLT, k("1")), c(v("x"), lang.OpGT, k("0"))), true},
		{"strings ordered", New(c(v("x"), lang.OpGT, k("m")), c(v("x"), lang.OpLT, k("a"))), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.s.Satisfiable(); got != tc.want {
				t.Fatalf("Satisfiable(%v) = %v, want %v", tc.s, got, tc.want)
			}
		})
	}
}

func TestImplies(t *testing.T) {
	s := New(c(v("x"), lang.OpLT, v("y")), c(v("y"), lang.OpLE, v("z")))
	if !s.Implies(c(v("x"), lang.OpLT, v("z"))) {
		t.Fatal("x<y, y<=z should imply x<z")
	}
	if !s.Implies(c(v("x"), lang.OpNE, v("z"))) {
		t.Fatal("x<z should imply x!=z")
	}
	if s.Implies(c(v("z"), lang.OpLT, v("x"))) {
		t.Fatal("must not imply z<x")
	}
	eq := New(c(v("x"), lang.OpLE, v("y")), c(v("y"), lang.OpLE, v("x")))
	if !eq.Implies(c(v("x"), lang.OpEQ, v("y"))) {
		t.Fatal("antisymmetry: x<=y, y<=x implies x=y")
	}
	unsat := New(c(v("x"), lang.OpLT, v("x")))
	if !unsat.Implies(c(v("a"), lang.OpEQ, k("7"))) {
		t.Fatal("unsat set implies everything")
	}
	empty := New()
	if !empty.Implies(c(v("x"), lang.OpLE, v("x"))) {
		t.Fatal("x<=x is valid")
	}
	if empty.Implies(c(v("x"), lang.OpLT, v("y"))) {
		t.Fatal("empty set implies nothing contingent")
	}
}

func TestAndCombines(t *testing.T) {
	a := New(c(v("x"), lang.OpLT, v("y")))
	b := New(c(v("y"), lang.OpLT, v("x")))
	if !a.Satisfiable() || !b.Satisfiable() {
		t.Fatal("parts should be satisfiable")
	}
	if a.And(b).Satisfiable() {
		t.Fatal("conjunction should be unsatisfiable")
	}
	if got := a.And(nil).Len(); got != 1 {
		t.Fatalf("And(nil) len = %d", got)
	}
	var nilSet *Set
	if got := nilSet.And(b).Len(); got != 1 {
		t.Fatalf("nil.And len = %d", got)
	}
}

func TestProjectKeepsEntailments(t *testing.T) {
	// x < y < z: projecting onto {x, z} must retain x < z.
	s := New(c(v("x"), lang.OpLT, v("y")), c(v("y"), lang.OpLT, v("z")))
	p := s.Project([]lang.Term{v("x"), v("z")})
	if !p.Implies(c(v("x"), lang.OpLT, v("z"))) {
		t.Fatalf("projection lost x<z: %v", p)
	}
	for _, cc := range p.Comparisons() {
		for _, term := range []lang.Term{cc.L, cc.R} {
			if term.IsVar() && term != v("x") && term != v("z") {
				t.Fatalf("projection leaked variable %v in %v", term, p)
			}
		}
	}
}

func TestProjectThroughConstants(t *testing.T) {
	// x <= 5 and y >= 9: projecting onto {x} keeps x <= 5.
	s := New(c(v("x"), lang.OpLE, k("5")), c(v("y"), lang.OpGE, k("9")))
	p := s.Project([]lang.Term{v("x")})
	if !p.Implies(c(v("x"), lang.OpLE, k("5"))) {
		t.Fatalf("projection lost x<=5: %v", p)
	}
	if p.Implies(c(v("x"), lang.OpLT, k("5"))) {
		t.Fatalf("projection overstated: %v", p)
	}
}

func TestProjectUnsat(t *testing.T) {
	s := New(c(v("x"), lang.OpLT, v("x")))
	p := s.Project([]lang.Term{v("y")})
	if p.Satisfiable() {
		t.Fatal("projection of unsat set must be unsat")
	}
}

func TestProjectEquality(t *testing.T) {
	s := New(c(v("x"), lang.OpEQ, v("y")), c(v("y"), lang.OpEQ, k("3")))
	p := s.Project([]lang.Term{v("x")})
	if !p.Implies(c(v("x"), lang.OpEQ, k("3"))) {
		t.Fatalf("projection lost x=3: %v", p)
	}
}

func TestApplySubst(t *testing.T) {
	s := New(c(v("x"), lang.OpLT, v("y")))
	sub := lang.Subst{"x": k("1"), "y": k("0")}
	if s.Apply(sub).Satisfiable() {
		t.Fatal("1<0 after substitution must be unsat")
	}
}

func TestStringDeterministic(t *testing.T) {
	s1 := New(c(v("x"), lang.OpLT, v("y")), c(v("a"), lang.OpEQ, k("1")))
	s2 := New(c(v("a"), lang.OpEQ, k("1")), c(v("x"), lang.OpLT, v("y")))
	if s1.String() != s2.String() {
		t.Fatalf("String not order-insensitive: %q vs %q", s1, s2)
	}
	var nilSet *Set
	if nilSet.String() != "true" {
		t.Fatal("nil String")
	}
}

// Property test: random conjunctions over a small variable/constant pool.
// If the solver says satisfiable, brute-force search over a small integer
// domain extended with "gaps" must find a model... instead we verify the
// contrapositive with a brute-force checker over rationals k/2 in [-1, 6]:
// if brute force finds a model, the solver must say satisfiable (solver
// completeness); if the solver says satisfiable over the dense domain and
// all constants are integers in range, a half-integer model must exist.
func TestSolverAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vars := []lang.Term{v("p"), v("q"), v("r")}
	consts := []lang.Term{k("0"), k("1"), k("2")}
	ops := []lang.CompOp{lang.OpEQ, lang.OpNE, lang.OpLT, lang.OpLE, lang.OpGT, lang.OpGE}
	randTerm := func() lang.Term {
		if rng.Intn(3) == 0 {
			return consts[rng.Intn(len(consts))]
		}
		return vars[rng.Intn(len(vars))]
	}
	// Domain: half-integers -1.0 .. 3.0 (dense enough between the constants
	// 0,1,2 for up-to-3-variable conjunctions).
	domain := []string{"-1", "-0.5", "0", "0.5", "1", "1.5", "2", "2.5", "3"}
	bruteSat := func(comps []lang.Comparison) bool {
		for _, d0 := range domain {
			for _, d1 := range domain {
				for _, d2 := range domain {
					sub := lang.Subst{"p": k(d0), "q": k(d1), "r": k(d2)}
					ok := true
					for _, cc := range comps {
						g := sub.ApplyComparison(cc)
						if !g.Op.EvalConst(g.L, g.R) {
							ok = false
							break
						}
					}
					if ok {
						return true
					}
				}
			}
		}
		return false
	}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(5)
		comps := make([]lang.Comparison, n)
		for i := range comps {
			comps[i] = c(randTerm(), ops[rng.Intn(len(ops))], randTerm())
		}
		got := New(comps...).Satisfiable()
		want := bruteSat(comps)
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v for %v", trial, got, want, New(comps...))
		}
	}
}
