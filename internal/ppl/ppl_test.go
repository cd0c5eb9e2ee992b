package ppl

import (
	"strings"
	"testing"

	"repro/internal/lang"
)

func v(n string) lang.Term                     { return lang.Var(n) }
func atom(p string, ts ...lang.Term) lang.Atom { return lang.NewAtom(p, ts...) }
func q(h lang.Atom, body ...lang.Atom) lang.CQ { return lang.CQ{Head: h, Body: body} }

// smallPDMS builds a two-peer PDMS: A with peer relation A:R, B with peer
// relation B:S and stored relation B.data, with B.data ⊆ B:S and an
// inclusion mapping A:R ⊆ B:S.
func smallPDMS(t *testing.T) *PDMS {
	t.Helper()
	n := New()
	decls := []RelationDecl{
		{Name: "A:R", Peer: "A", Arity: 2, Kind: PeerRelation},
		{Name: "B:S", Peer: "B", Arity: 2, Kind: PeerRelation},
		{Name: "B.data", Peer: "B", Arity: 2, Kind: StoredRelation},
	}
	for _, d := range decls {
		if err := n.DeclareRelation(d); err != nil {
			t.Fatal(err)
		}
	}
	err := n.AddMapping(&Mapping{
		Kind: Inclusion,
		LHS:  q(atom("m", v("x"), v("y")), atom("A:R", v("x"), v("y"))),
		RHS:  q(atom("m", v("x"), v("y")), atom("B:S", v("x"), v("y"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	err = n.AddStorage(&Storage{
		Kind:   StorageContainment,
		Stored: atom("B.data", v("x"), v("y")),
		Query:  q(atom("s", v("x"), v("y")), atom("B:S", v("x"), v("y"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestDeclareRelationValidation(t *testing.T) {
	n := New()
	if err := n.DeclareRelation(RelationDecl{Name: "", Peer: "A", Arity: 1}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := n.DeclareRelation(RelationDecl{Name: "A:R", Peer: "A", Arity: 0}); err == nil {
		t.Fatal("zero arity accepted")
	}
	if err := n.DeclareRelation(RelationDecl{Name: "A:R", Peer: "A", Arity: 2, Attrs: []string{"x"}}); err == nil {
		t.Fatal("attr/arity mismatch accepted")
	}
	if err := n.DeclareRelation(RelationDecl{Name: "A:R", Peer: "A", Arity: 2}); err != nil {
		t.Fatal(err)
	}
	// Identical redeclaration is fine; incompatible is not.
	if err := n.DeclareRelation(RelationDecl{Name: "A:R", Peer: "A", Arity: 2}); err != nil {
		t.Fatal(err)
	}
	if err := n.DeclareRelation(RelationDecl{Name: "A:R", Peer: "A", Arity: 3}); err == nil {
		t.Fatal("incompatible redeclaration accepted")
	}
	if !n.HasPeer("A") {
		t.Fatal("peer not implicitly added")
	}
}

func TestAddMappingValidation(t *testing.T) {
	n := New()
	_ = n.DeclareRelation(RelationDecl{Name: "A:R", Peer: "A", Arity: 1, Kind: PeerRelation})
	// Arity mismatch between sides.
	err := n.AddMapping(&Mapping{
		Kind: Inclusion,
		LHS:  q(atom("m", v("x")), atom("A:R", v("x"))),
		RHS:  q(atom("m", v("x"), v("y")), atom("A:R", v("x"))),
	})
	if err == nil {
		t.Fatal("side arity mismatch accepted")
	}
	// Undeclared relation.
	err = n.AddMapping(&Mapping{
		Kind: Inclusion,
		LHS:  q(atom("m", v("x")), atom("A:R", v("x"))),
		RHS:  q(atom("m", v("x")), atom("B:Nope", v("x"))),
	})
	if err == nil {
		t.Fatal("undeclared relation accepted")
	}
	// Wrong atom arity.
	err = n.AddMapping(&Mapping{
		Kind: Inclusion,
		LHS:  q(atom("m", v("x")), atom("A:R", v("x"), v("y"))),
		RHS:  q(atom("m", v("x")), atom("A:R", v("x"))),
	})
	if err == nil {
		t.Fatal("wrong atom arity accepted")
	}
	// Unsafe side.
	err = n.AddMapping(&Mapping{
		Kind: Inclusion,
		LHS:  q(atom("m", v("z")), atom("A:R", v("x"))),
		RHS:  q(atom("m", v("x")), atom("A:R", v("x"))),
	})
	if err == nil {
		t.Fatal("unsafe side accepted")
	}
	// Valid definitional.
	err = n.AddMapping(&Mapping{
		Kind: Definitional,
		Rule: q(atom("A:R", v("x")), atom("A:R", v("x"))),
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAddStorageValidation(t *testing.T) {
	n := New()
	_ = n.DeclareRelation(RelationDecl{Name: "A:R", Peer: "A", Arity: 1, Kind: PeerRelation})
	_ = n.DeclareRelation(RelationDecl{Name: "A.d", Peer: "A", Arity: 1, Kind: StoredRelation})
	_ = n.DeclareRelation(RelationDecl{Name: "A.e", Peer: "A", Arity: 1, Kind: StoredRelation})
	// Head must be stored.
	err := n.AddStorage(&Storage{
		Stored: atom("A:R", v("x")),
		Query:  q(atom("s", v("x")), atom("A:R", v("x"))),
	})
	if err == nil {
		t.Fatal("peer relation as storage head accepted")
	}
	// Defining query must not use stored relations.
	err = n.AddStorage(&Storage{
		Stored: atom("A.d", v("x")),
		Query:  q(atom("s", v("x")), atom("A.e", v("x"))),
	})
	if err == nil {
		t.Fatal("stored relation in defining query accepted")
	}
	// Valid.
	err = n.AddStorage(&Storage{
		Stored: atom("A.d", v("x")),
		Query:  q(atom("s", v("x")), atom("A:R", v("x"))),
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIDsAssigned(t *testing.T) {
	n := smallPDMS(t)
	if n.Mappings()[0].ID == "" || n.Storages()[0].ID == "" {
		t.Fatal("IDs not assigned")
	}
	if n.Mappings()[0].ID == n.Storages()[0].ID {
		t.Fatal("IDs collide")
	}
}

func TestStats(t *testing.T) {
	n := smallPDMS(t)
	st := n.Stats()
	if st.Peers != 2 || st.PeerRelations != 2 || st.StoredRels != 1 ||
		st.Inclusions != 1 || st.StorageDescrs != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestValidateQuery(t *testing.T) {
	n := smallPDMS(t)
	good := q(atom("q", v("x")), atom("A:R", v("x"), v("y")))
	if err := n.ValidateQuery(good); err != nil {
		t.Fatal(err)
	}
	bad := q(atom("q", v("x")), atom("Nope", v("x")))
	if err := n.ValidateQuery(bad); err == nil {
		t.Fatal("undeclared relation in query accepted")
	}
	unsafe := q(atom("q", v("z")), atom("A:R", v("x"), v("y")))
	if err := n.ValidateQuery(unsafe); err == nil {
		t.Fatal("unsafe query accepted")
	}
}

// TestCheckFact: a row must match its relation's declared arity and every
// comparison of its storage descriptions that reads only stored-atom
// variables; a comparison over a variable the stored atom lacks cannot be
// tested on the row and is skipped.
func TestCheckFact(t *testing.T) {
	n := smallPDMS(t)
	cq := q(atom("_store", v("x"), v("y")), atom("B:S", v("x"), v("z")), atom("A:R", v("z"), v("y")))
	cq.Comps = []lang.Comparison{
		{Op: lang.OpGE, L: v("x"), R: lang.Const("10")},
		{Op: lang.OpNE, L: v("y"), R: v("x")},
		{Op: lang.OpLT, L: v("z"), R: lang.Const("0")},
	}
	if err := n.AddStorage(&Storage{Kind: StorageContainment, Stored: atom("B.data", v("x"), v("y")), Query: cq}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		row  []string
		want string // substring of the error; "" accepts the row
	}{
		{[]string{"10", "a"}, ""},
		{[]string{"9", "a"}, "x >= 10"},
		{[]string{"12", "12"}, "y != x"},
		{[]string{"10"}, "declared with arity 2"},
	} {
		err := n.CheckFact("B.data", tc.row)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Fatalf("CheckFact(%q) = %v, want %q", tc.row, err, tc.want)
		}
	}
	if err := n.CheckFact("Undeclared.r", []string{"1"}); err != nil {
		t.Fatalf("undeclared relation: %v", err)
	}
}

func TestAcyclicInclusionsSimple(t *testing.T) {
	n := smallPDMS(t)
	if ok, _ := n.AcyclicInclusions(); !ok {
		t.Fatal("acyclic PDMS reported cyclic")
	}
	// Add reverse inclusion B:S ⊆ A:R → cycle.
	err := n.AddMapping(&Mapping{
		Kind: Inclusion,
		LHS:  q(atom("m", v("x"), v("y")), atom("B:S", v("x"), v("y"))),
		RHS:  q(atom("m", v("x"), v("y")), atom("A:R", v("x"), v("y"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	ok, cycle := n.AcyclicInclusions()
	if ok {
		t.Fatal("cycle not detected")
	}
	if len(cycle) < 3 || cycle[0] != cycle[len(cycle)-1] {
		t.Fatalf("bad cycle witness: %v", cycle)
	}
}

func TestEqualityCreatesCycle(t *testing.T) {
	n := smallPDMS(t)
	err := n.AddMapping(&Mapping{
		Kind: Equality,
		LHS:  q(atom("m", v("x"), v("y")), atom("A:R", v("x"), v("y"))),
		RHS:  q(atom("m", v("x"), v("y")), atom("B:S", v("x"), v("y"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := n.AcyclicInclusions(); ok {
		t.Fatal("equality must create a cycle in the full graph (paper Section 3)")
	}
	// But the pure-inclusion graph remains acyclic, which is what
	// Theorem 3.2 requires.
	if ok, _ := n.AcyclicInclusionsOnly(); !ok {
		t.Fatal("pure-inclusion graph should stay acyclic")
	}
}

func TestClassifyPTime(t *testing.T) {
	n := smallPDMS(t)
	cl := n.Classify(lang.CQ{})
	if cl.Class != PTime {
		t.Fatalf("Classify = %v", cl)
	}
}

func TestClassifyCyclicUndecidable(t *testing.T) {
	n := smallPDMS(t)
	_ = n.AddMapping(&Mapping{
		Kind: Inclusion,
		LHS:  q(atom("m", v("x"), v("y")), atom("B:S", v("x"), v("y"))),
		RHS:  q(atom("m", v("x"), v("y")), atom("A:R", v("x"), v("y"))),
	})
	cl := n.Classify(lang.CQ{})
	if cl.Class != Undecidable {
		t.Fatalf("Classify = %v", cl)
	}
	if !strings.Contains(cl.String(), "cyclic") {
		t.Fatalf("missing reason: %v", cl)
	}
}

func TestClassifyEqualityProjectionCoNP(t *testing.T) {
	n := New()
	_ = n.DeclareRelation(RelationDecl{Name: "A:R", Peer: "A", Arity: 2, Kind: PeerRelation})
	_ = n.DeclareRelation(RelationDecl{Name: "B:S", Peer: "B", Arity: 1, Kind: PeerRelation})
	// Equality with projection: m(x) over A:R(x,y) = B:S(x).
	err := n.AddMapping(&Mapping{
		Kind: Equality,
		LHS:  q(atom("m", v("x")), atom("A:R", v("x"), v("y"))),
		RHS:  q(atom("m", v("x")), atom("B:S", v("x"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := n.Classify(lang.CQ{})
	if cl.Class != CoNP {
		t.Fatalf("Classify = %v", cl)
	}
}

func TestClassifyStorageEqualityProjection(t *testing.T) {
	n := New()
	_ = n.DeclareRelation(RelationDecl{Name: "A:R", Peer: "A", Arity: 2, Kind: PeerRelation})
	_ = n.DeclareRelation(RelationDecl{Name: "A.d", Peer: "A", Arity: 1, Kind: StoredRelation})
	err := n.AddStorage(&Storage{
		Kind:   StorageEquality,
		Stored: atom("A.d", v("x")),
		Query:  q(atom("s", v("x")), atom("A:R", v("x"), v("y"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := n.Classify(lang.CQ{})
	if cl.Class != CoNP {
		t.Fatalf("Thm 3.2(2) case: Classify = %v", cl)
	}
}

func TestClassifyDefinitionalHeadOnRHS(t *testing.T) {
	n := New()
	_ = n.DeclareRelation(RelationDecl{Name: "A:P", Peer: "A", Arity: 1, Kind: PeerRelation})
	_ = n.DeclareRelation(RelationDecl{Name: "A:Q", Peer: "A", Arity: 1, Kind: PeerRelation})
	_ = n.DeclareRelation(RelationDecl{Name: "B:T", Peer: "B", Arity: 1, Kind: PeerRelation})
	_ = n.AddMapping(&Mapping{
		Kind: Definitional,
		Rule: q(atom("A:P", v("x")), atom("A:Q", v("x"))),
	})
	_ = n.AddMapping(&Mapping{
		Kind: Inclusion,
		LHS:  q(atom("m", v("x")), atom("B:T", v("x"))),
		RHS:  q(atom("m", v("x")), atom("A:P", v("x"))),
	})
	cl := n.Classify(lang.CQ{})
	if cl.Class != CoNP {
		t.Fatalf("definitional head on RHS: Classify = %v", cl)
	}
}

func TestClassifyComparisonPlacement(t *testing.T) {
	n := smallPDMS(t)
	// Comparisons in the query → co-NP per Thm 3.3(2).
	qc := q(atom("q", v("x")), atom("A:R", v("x"), v("y")))
	qc.Comps = []lang.Comparison{{Op: lang.OpLT, L: v("x"), R: lang.Const("5")}}
	if cl := n.Classify(qc); cl.Class != CoNP {
		t.Fatalf("query comparisons: Classify = %v", cl)
	}
	// Comparisons in a definitional body stay PTIME per Thm 3.3(1).
	def := q(atom("A:R", v("x"), v("y")), atom("B:S", v("x"), v("y")))
	def.Comps = []lang.Comparison{{Op: lang.OpGT, L: v("x"), R: lang.Const("0")}}
	if err := n.AddMapping(&Mapping{Kind: Definitional, Rule: def}); err != nil {
		t.Fatal(err)
	}
	if cl := n.Classify(lang.CQ{}); cl.Class != PTime {
		t.Fatalf("definitional comparisons: Classify = %v", cl)
	}
	// Comparisons in an inclusion mapping → co-NP.
	inc := q(atom("m", v("x"), v("y")), atom("A:R", v("x"), v("y")))
	inc.Comps = []lang.Comparison{{Op: lang.OpNE, L: v("x"), R: v("y")}}
	if err := n.AddMapping(&Mapping{Kind: Inclusion, LHS: inc,
		RHS: q(atom("m", v("x"), v("y")), atom("B:S", v("x"), v("y")))}); err != nil {
		t.Fatal(err)
	}
	if cl := n.Classify(lang.CQ{}); cl.Class != CoNP {
		t.Fatalf("inclusion comparisons: Classify = %v", cl)
	}
}

func TestMappingString(t *testing.T) {
	n := smallPDMS(t)
	s := n.Mappings()[0].String()
	if !strings.Contains(s, "⊆") {
		t.Fatalf("Mapping.String = %q", s)
	}
	st := n.Storages()[0].String()
	if !strings.Contains(st, "B.data") {
		t.Fatalf("Storage.String = %q", st)
	}
}

func TestComplexityString(t *testing.T) {
	if PTime.String() != "PTIME" || CoNP.String() != "co-NP-complete" {
		t.Fatal("Complexity.String wrong")
	}
	if !strings.Contains(Undecidable.String(), "undecidable") {
		t.Fatal("Undecidable.String wrong")
	}
}
