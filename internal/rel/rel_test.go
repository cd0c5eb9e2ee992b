package rel

import (
	"strings"
	"testing"

	"repro/internal/lang"
)

func TestRelationInsertDedup(t *testing.T) {
	r := NewRelation("R", 2)
	nw, err := r.Insert(Tuple{"a", "b"})
	if err != nil || !nw {
		t.Fatalf("first insert: %v %v", nw, err)
	}
	nw, err = r.Insert(Tuple{"a", "b"})
	if err != nil || nw {
		t.Fatalf("dup insert: %v %v", nw, err)
	}
	if r.Len() != 1 || !r.Contains(Tuple{"a", "b"}) {
		t.Fatal("set semantics broken")
	}
	if _, err := r.Insert(Tuple{"a"}); err == nil {
		t.Fatal("arity mismatch not detected")
	}
}

func TestTupleKeyCollisionResistance(t *testing.T) {
	// Values may hold any byte, NUL included (wire PROTOCOL.md), so no
	// separator choice can keep a joined key injective; the length-prefixed
	// Key must tell every pair apart, whatever prefix-like bytes they hold.
	for _, pair := range [][2]Tuple{
		{{"a", "b"}, {"a\x00b"}},
		{{"a\x00b", "c"}, {"a", "b\x00c"}},
		{{"", "\x00"}, {"\x00", ""}},
		{{"1:a"}, {"a"}},
		{{"1:a", ""}, {"a", "0:"}},
		// Values holding the row encoding's own bytes.
		{{"\x01a"}, {"a"}},
		{{"\x01a", "b"}, {"\x01a\x01b"}},
		{{"a", "\x01b"}, {"a\x01b"}},
		{{"\x03"}, {"", "", ""}},
		{{"\x00"}, {""}},
		{{"\x00", ""}, {"", "\x00"}},
		{{"\x02\x01a\x01b"}, {"a", "b"}},
	} {
		if a, b := pair[0], pair[1]; a.Key() == b.Key() {
			t.Errorf("%q and %q share key %q", a, b, a.Key())
		}
	}
	if (Tuple{"a", "b"}).Key() != (Tuple{"a", "b"}).Key() {
		t.Error("equal tuples must share a key")
	}
}

// TestRelationInsertNULValues: two tuples that only a NUL-joined key would
// confuse are both stored, counted and found in the one tuple set.
func TestRelationInsertNULValues(t *testing.T) {
	r := NewRelation("R", 2)
	a, b := Tuple{"a\x00b", "c"}, Tuple{"a", "b\x00c"}
	for _, tu := range []Tuple{a, b} {
		if nw, err := r.Insert(tu); err != nil || !nw {
			t.Fatalf("insert %q: new=%v err=%v", tu, nw, err)
		}
	}
	if nw, err := r.Insert(Tuple{"a", "b\x00c"}); err != nil || nw {
		t.Fatalf("re-insert: new=%v err=%v", nw, err)
	}
	if r.Len() != 2 || !r.Contains(a) || !r.Contains(b) || r.Contains(Tuple{"a", "b"}) {
		t.Fatalf("Len=%d Contains(a)=%v Contains(b)=%v", r.Len(), r.Contains(a), r.Contains(b))
	}
	got := r.Tuples()
	if len(got) != 2 || !got[0].Equal(b) || !got[1].Equal(a) {
		t.Fatalf("Tuples = %q, want [%q %q]", got, b, a)
	}
}

func TestInstanceCloneIndependent(t *testing.T) {
	ins := NewInstance()
	ins.MustAdd("R", "1")
	cp := ins.Clone()
	cp.MustAdd("R", "2")
	if ins.Relation("R").Len() != 1 || cp.Relation("R").Len() != 2 {
		t.Fatal("clone aliases original")
	}
}

func TestEvalCQJoin(t *testing.T) {
	ins := NewInstance()
	ins.MustAdd("E", "a", "b")
	ins.MustAdd("E", "b", "c")
	ins.MustAdd("E", "c", "d")
	// Two-hop paths: q(x,z) :- E(x,y), E(y,z).
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x"), lang.Var("z")),
		Body: []lang.Atom{
			lang.NewAtom("E", lang.Var("x"), lang.Var("y")),
			lang.NewAtom("E", lang.Var("y"), lang.Var("z")),
		},
	}
	rows, err := EvalCQ(q, ins)
	if err != nil {
		t.Fatal(err)
	}
	want := []Tuple{{"a", "c"}, {"b", "d"}}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v", rows)
	}
	for i := range want {
		if !rows[i].Equal(want[i]) {
			t.Fatalf("rows = %v, want %v", rows, want)
		}
	}
}

func TestEvalCQConstantsAndSelfJoin(t *testing.T) {
	ins := NewInstance()
	ins.MustAdd("R", "1", "1")
	ins.MustAdd("R", "1", "2")
	// q(x) :- R(x, x): diagonal.
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x")),
		Body: []lang.Atom{lang.NewAtom("R", lang.Var("x"), lang.Var("x"))},
	}
	rows, err := EvalCQ(q, ins)
	if err != nil || len(rows) != 1 || rows[0][0] != "1" {
		t.Fatalf("diagonal rows = %v err = %v", rows, err)
	}
	// q2(y) :- R("1", y): constant selection.
	q2 := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("R", lang.Const("1"), lang.Var("y"))},
	}
	rows, err = EvalCQ(q2, ins)
	if err != nil || len(rows) != 2 {
		t.Fatalf("selection rows = %v err = %v", rows, err)
	}
}

func TestEvalCQConstInHead(t *testing.T) {
	ins := NewInstance()
	ins.MustAdd("R", "x1")
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("a"), lang.Const("tag")),
		Body: []lang.Atom{lang.NewAtom("R", lang.Var("a"))},
	}
	rows, err := EvalCQ(q, ins)
	if err != nil || len(rows) != 1 || rows[0][1] != "tag" {
		t.Fatalf("rows = %v err = %v", rows, err)
	}
}

func TestEvalCQComparisons(t *testing.T) {
	ins := NewInstance()
	ins.MustAdd("P", "alice", "3")
	ins.MustAdd("P", "bob", "7")
	ins.MustAdd("P", "carol", "10")
	q := lang.CQ{
		Head:  lang.NewAtom("q", lang.Var("n")),
		Body:  []lang.Atom{lang.NewAtom("P", lang.Var("n"), lang.Var("a"))},
		Comps: []lang.Comparison{{Op: lang.OpGT, L: lang.Var("a"), R: lang.Const("5")}},
	}
	rows, err := EvalCQ(q, ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != "bob" || rows[1][0] != "carol" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestEvalCQUnsafe(t *testing.T) {
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x")),
		Body: []lang.Atom{lang.NewAtom("R", lang.Var("y"))},
	}
	if _, err := EvalCQ(q, NewInstance()); err == nil {
		t.Fatal("unsafe query accepted")
	}
}

func TestEvalCQUnboundComparison(t *testing.T) {
	ins := NewInstance()
	ins.MustAdd("R", "1")
	q := lang.CQ{
		Head:  lang.NewAtom("q", lang.Var("x")),
		Body:  []lang.Atom{lang.NewAtom("R", lang.Var("x"))},
		Comps: []lang.Comparison{{Op: lang.OpLT, L: lang.Var("x"), R: lang.Var("free")}},
	}
	if _, err := EvalCQ(q, ins); err == nil {
		t.Fatal("comparison over unbound variable accepted")
	}
}

func TestEvalCQMissingRelationEmpty(t *testing.T) {
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x")),
		Body: []lang.Atom{lang.NewAtom("Nope", lang.Var("x"))},
	}
	rows, err := EvalCQ(q, NewInstance())
	if err != nil || len(rows) != 0 {
		t.Fatalf("rows = %v err = %v", rows, err)
	}
}

func TestEvalUCQUnionDedup(t *testing.T) {
	ins := NewInstance()
	ins.MustAdd("A", "1")
	ins.MustAdd("B", "1")
	ins.MustAdd("B", "2")
	u := lang.UCQ{}
	u.Add(lang.CQ{Head: lang.NewAtom("q", lang.Var("x")), Body: []lang.Atom{lang.NewAtom("A", lang.Var("x"))}})
	u.Add(lang.CQ{Head: lang.NewAtom("q", lang.Var("x")), Body: []lang.Atom{lang.NewAtom("B", lang.Var("x"))}})
	rows, err := EvalUCQ(u, ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestEvalDatalogTransitiveClosure(t *testing.T) {
	ins := NewInstance()
	ins.MustAdd("E", "a", "b")
	ins.MustAdd("E", "b", "c")
	ins.MustAdd("E", "c", "d")
	rules := []lang.CQ{
		{Head: lang.NewAtom("T", lang.Var("x"), lang.Var("y")),
			Body: []lang.Atom{lang.NewAtom("E", lang.Var("x"), lang.Var("y"))}},
		{Head: lang.NewAtom("T", lang.Var("x"), lang.Var("z")),
			Body: []lang.Atom{
				lang.NewAtom("E", lang.Var("x"), lang.Var("y")),
				lang.NewAtom("T", lang.Var("y"), lang.Var("z"))}},
	}
	out, err := EvalDatalog(rules, ins)
	if err != nil {
		t.Fatal(err)
	}
	tc := out.Relation("T")
	if tc == nil || tc.Len() != 6 {
		t.Fatalf("closure size = %v, want 6 pairs", tc)
	}
	for _, pair := range [][2]string{{"a", "b"}, {"a", "c"}, {"a", "d"}, {"b", "c"}, {"b", "d"}, {"c", "d"}} {
		if !tc.Contains(Tuple{pair[0], pair[1]}) {
			t.Fatalf("missing pair %v", pair)
		}
	}
	// Base preserved.
	if out.Relation("E").Len() != 3 {
		t.Fatal("base relation modified")
	}
}

func TestEvalDatalogDisjunction(t *testing.T) {
	// P is the union of P1 and P2 (paper Section 2.1.2 example).
	ins := NewInstance()
	ins.MustAdd("P1", "a")
	ins.MustAdd("P2", "b")
	rules := []lang.CQ{
		{Head: lang.NewAtom("P", lang.Var("x")), Body: []lang.Atom{lang.NewAtom("P1", lang.Var("x"))}},
		{Head: lang.NewAtom("P", lang.Var("x")), Body: []lang.Atom{lang.NewAtom("P2", lang.Var("x"))}},
	}
	out, err := EvalDatalog(rules, ins)
	if err != nil {
		t.Fatal(err)
	}
	p := out.Relation("P")
	if p == nil || p.Len() != 2 {
		t.Fatalf("P = %v", p)
	}
}

func TestEvalDatalogWithComparison(t *testing.T) {
	ins := NewInstance()
	ins.MustAdd("N", "1")
	ins.MustAdd("N", "5")
	ins.MustAdd("N", "9")
	rules := []lang.CQ{
		{Head: lang.NewAtom("Big", lang.Var("x")),
			Body:  []lang.Atom{lang.NewAtom("N", lang.Var("x"))},
			Comps: []lang.Comparison{{Op: lang.OpGE, L: lang.Var("x"), R: lang.Const("5")}}},
	}
	out, err := EvalDatalog(rules, ins)
	if err != nil {
		t.Fatal(err)
	}
	if out.Relation("Big").Len() != 2 {
		t.Fatalf("Big = %v", out.Relation("Big").Tuples())
	}
}

func TestInstanceStringDeterministic(t *testing.T) {
	ins := NewInstance()
	ins.MustAdd("B", "2")
	ins.MustAdd("A", "1")
	s := ins.String()
	if !strings.HasPrefix(s, "A(1)\n") {
		t.Fatalf("String = %q", s)
	}
}
