package lang

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	v := Var("x")
	if !v.IsVar() || v.IsConst() {
		t.Fatalf("Var(x) kind wrong: %+v", v)
	}
	c := Const("5")
	if !c.IsConst() || c.IsVar() {
		t.Fatalf("Const(5) kind wrong: %+v", c)
	}
	if v == c {
		t.Fatal("variable x must differ from constant x")
	}
}

func TestTermString(t *testing.T) {
	tests := []struct {
		in   Term
		want string
	}{
		{Var("x"), "x"},
		{Const("5"), "5"},
		{Const("-3.5"), "-3.5"},
		{Const("abc"), `"abc"`},
		{Const("a b"), `"a b"`},
	}
	for _, tc := range tests {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("String(%+v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestCompareConst(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"1", "2", -1},
		{"2", "1", 1},
		{"2", "2", 0},
		{"10", "9", 1}, // numeric, not lexicographic
		{"abc", "abd", -1},
		{"abc", "abc", 0},
		{"10", "abc", -1}, // mixed falls back to string compare: "10" < "abc"
	}
	for _, tc := range tests {
		if got := CompareConst(Const(tc.a), Const(tc.b)); got != tc.want {
			t.Errorf("CompareConst(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestAtomBasics(t *testing.T) {
	a := NewAtom("R", Var("x"), Const("c"), Var("x"), Var("y"))
	if a.Arity() != 4 {
		t.Fatalf("arity = %d", a.Arity())
	}
	vs := a.Vars(nil)
	if len(vs) != 2 || vs[0] != Var("x") || vs[1] != Var("y") {
		t.Fatalf("Vars = %v", vs)
	}
	if !a.HasVar(Var("y")) || a.HasVar(Var("z")) {
		t.Fatal("HasVar wrong")
	}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Args[0] = Const("q")
	if a.Equal(b) {
		t.Fatal("clone aliases original")
	}
	if a.Equal(NewAtom("R", Var("x"))) {
		t.Fatal("arity mismatch should not be equal")
	}
	if a.Equal(NewAtom("S", a.Args...)) {
		t.Fatal("pred mismatch should not be equal")
	}
}

func TestCompOpFlipNegate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := []CompOp{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE}
	for _, op := range ops {
		if op.Negate().Negate() != op {
			t.Errorf("Negate not involutive for %v", op)
		}
		// Semantic checks on random constants.
		for i := 0; i < 200; i++ {
			a := Const(itoa(rng.Intn(10)))
			b := Const(itoa(rng.Intn(10)))
			if op.EvalConst(a, b) == op.Negate().EvalConst(a, b) {
				t.Fatalf("%v negate semantics broken on %v,%v", op, a, b)
			}
		}
	}
}

func itoa(i int) string {
	return string(rune('0' + i))
}

func TestComparisonString(t *testing.T) {
	c := Comparison{Op: OpLE, L: Var("x"), R: Const("5")}
	if got := c.String(); got != "x <= 5" {
		t.Errorf("String = %q", got)
	}
}

func TestComparisonVars(t *testing.T) {
	c := Comparison{Op: OpLT, L: Var("x"), R: Var("y")}
	vs := c.Vars([]Term{Var("x")})
	if len(vs) != 2 || vs[1] != Var("y") {
		t.Fatalf("Vars = %v", vs)
	}
}

// Property: CompareConst is antisymmetric and reflexive over random numeric
// strings.
func TestCompareConstProperties(t *testing.T) {
	f := func(a, b int16) bool {
		ta, tb := Const(int16str(a)), Const(int16str(b))
		if CompareConst(ta, ta) != 0 {
			return false
		}
		return CompareConst(ta, tb) == -CompareConst(tb, ta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func int16str(v int16) string {
	// strconv-free small helper keeps test dependencies minimal.
	neg := v < 0
	x := int(v)
	if neg {
		x = -x
	}
	if x == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for x > 0 {
		i--
		buf[i] = byte('0' + x%10)
		x /= 10
	}
	s := string(buf[i:])
	if neg {
		return "-" + s
	}
	return s
}

func TestAtomVarsOrderStable(t *testing.T) {
	a := NewAtom("R", Var("b"), Var("a"), Var("b"), Var("c"))
	got := a.Vars(nil)
	want := []Term{Var("b"), Var("a"), Var("c")}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Vars order = %v, want %v", got, want)
	}
}

// TestCompareConstFastPathSemantics pins CompareConst against the
// reference two-ParseFloat implementation: the maybeNumeric fast path
// (added so comparison-heavy scans stop allocating strconv syntax errors
// for plainly textual values) must be semantically invisible, including
// for ParseFloat's inf/NaN spellings.
func TestCompareConstFastPathSemantics(t *testing.T) {
	ref := func(a, b string) int {
		fa, ea := strconv.ParseFloat(a, 64)
		fb, eb := strconv.ParseFloat(b, 64)
		if ea == nil && eb == nil {
			switch {
			case fa < fb:
				return -1
			case fa > fb:
				return 1
			default:
				return 0
			}
		}
		return strings.Compare(a, b)
	}
	vals := []string{
		"", "0", "9", "10", "-3", "+4", ".5", "1e5", "o00012345", "region7",
		"inf", "Inf", "Infinity", "-inf", "NaN", "nan", "n3", "n10",
		"abc", "1.2.3", "i", "N", "0x1p2",
	}
	for _, a := range vals {
		for _, b := range vals {
			got := CompareConst(Const(a), Const(b))
			want := ref(a, b)
			if (got < 0) != (want < 0) || (got > 0) != (want > 0) {
				t.Fatalf("CompareConst(%q, %q) = %d, reference %d", a, b, got, want)
			}
		}
	}
}
