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
func and(comps ...lang.Comparison) []lang.Comparison { return comps }

func TestSatisfiableBasics(t *testing.T) {
	tests := []struct {
		name string
		s    []lang.Comparison
		want bool
	}{
		{"empty", []lang.Comparison{}, true},
		{"nil", nil, true},
		{"x<y", and(c(v("x"), lang.OpLT, v("y"))), true},
		{"x<x", and(c(v("x"), lang.OpLT, v("x"))), false},
		{"x<=x", and(c(v("x"), lang.OpLE, v("x"))), true},
		{"x<y,y<x", and(c(v("x"), lang.OpLT, v("y")), c(v("y"), lang.OpLT, v("x"))), false},
		{"x<=y,y<=x", and(c(v("x"), lang.OpLE, v("y")), c(v("y"), lang.OpLE, v("x"))), true},
		{"x<=y,y<=x,x!=y", and(c(v("x"), lang.OpLE, v("y")), c(v("y"), lang.OpLE, v("x")), c(v("x"), lang.OpNE, v("y"))), false},
		{"x=1,x=2", and(c(v("x"), lang.OpEQ, k("1")), c(v("x"), lang.OpEQ, k("2"))), false},
		{"x=1,x<2", and(c(v("x"), lang.OpEQ, k("1")), c(v("x"), lang.OpLT, k("2"))), true},
		{"x=2,x<1", and(c(v("x"), lang.OpEQ, k("2")), c(v("x"), lang.OpLT, k("1"))), false},
		{"ground true", and(c(k("1"), lang.OpLT, k("2"))), true},
		{"ground false", and(c(k("2"), lang.OpLT, k("1"))), false},
		{"x>5,x<3", and(c(v("x"), lang.OpGT, k("5")), c(v("x"), lang.OpLT, k("3"))), false},
		{"x>=5,x<=5", and(c(v("x"), lang.OpGE, k("5")), c(v("x"), lang.OpLE, k("5"))), true},
		{"x>=5,x<=5,x!=5", and(c(v("x"), lang.OpGE, k("5")), c(v("x"), lang.OpLE, k("5")), c(v("x"), lang.OpNE, k("5"))), false},
		{"chain strict", and(c(v("a"), lang.OpLT, v("b")), c(v("b"), lang.OpLT, v("c")), c(v("c"), lang.OpLE, v("a"))), false},
		{"eq chain const clash", and(c(v("a"), lang.OpEQ, v("b")), c(v("b"), lang.OpEQ, v("d")), c(v("a"), lang.OpEQ, k("1")), c(v("d"), lang.OpEQ, k("2"))), false},
		{"between consts", and(c(k("1"), lang.OpLT, v("x")), c(v("x"), lang.OpLT, k("2"))), true},
		{"x<y,y<1,x>0 dense ok", and(c(v("x"), lang.OpLT, v("y")), c(v("y"), lang.OpLT, k("1")), c(v("x"), lang.OpGT, k("0"))), true},
		{"strings ordered", and(c(v("x"), lang.OpGT, k("m")), c(v("x"), lang.OpLT, k("a"))), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Satisfiable(tc.s); got != tc.want {
				t.Fatalf("Satisfiable(%v) = %v, want %v", tc.s, got, tc.want)
			}
		})
	}
}

func TestImplies(t *testing.T) {
	s := and(c(v("x"), lang.OpLT, v("y")), c(v("y"), lang.OpLE, v("z")))
	if !Implies(s, c(v("x"), lang.OpLT, v("z"))) {
		t.Fatal("x<y, y<=z should imply x<z")
	}
	if !Implies(s, c(v("x"), lang.OpNE, v("z"))) {
		t.Fatal("x<z should imply x!=z")
	}
	if Implies(s, c(v("z"), lang.OpLT, v("x"))) {
		t.Fatal("must not imply z<x")
	}
	eq := and(c(v("x"), lang.OpLE, v("y")), c(v("y"), lang.OpLE, v("x")))
	if !Implies(eq, c(v("x"), lang.OpEQ, v("y"))) {
		t.Fatal("antisymmetry: x<=y, y<=x implies x=y")
	}
	unsat := and(c(v("x"), lang.OpLT, v("x")))
	if !Implies(unsat, c(v("a"), lang.OpEQ, k("7"))) {
		t.Fatal("unsat set implies everything")
	}
	var empty []lang.Comparison
	if !Implies(empty, c(v("x"), lang.OpLE, v("x"))) {
		t.Fatal("x<=x is valid")
	}
	if Implies(empty, c(v("x"), lang.OpLT, v("y"))) {
		t.Fatal("empty set implies nothing contingent")
	}
}

func TestAndCombines(t *testing.T) {
	a := and(c(v("x"), lang.OpLT, v("y")))
	b := and(c(v("y"), lang.OpLT, v("x")))
	if !Satisfiable(a) || !Satisfiable(b) {
		t.Fatal("parts should be satisfiable")
	}
	if Satisfiable(append(a, b...)) {
		t.Fatal("conjunction should be unsatisfiable")
	}
}

func TestApplySubst(t *testing.T) {
	s := and(c(v("x"), lang.OpLT, v("y")))
	sub := lang.Subst{"x": k("1"), "y": k("0")}
	if Satisfiable(sub.ApplyComparisons(s)) {
		t.Fatal("1<0 after substitution must be unsat")
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
		got := Satisfiable(comps)
		want := bruteSat(comps)
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v for %v", trial, got, want, comps)
		}
	}
}
