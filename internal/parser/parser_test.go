package parser

import (
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/ppl"
)

func TestParsePeerBlock(t *testing.T) {
	res, err := Parse(`
peer H {
  Doctor(sid, loc)
  EMT(sid, vid)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	d := res.PDMS.Relation("H:Doctor")
	if d == nil || d.Arity != 2 || d.Kind != ppl.PeerRelation || d.Peer != "H" {
		t.Fatalf("H:Doctor decl = %+v", d)
	}
	if res.PDMS.Relation("H:EMT") == nil {
		t.Fatal("H:EMT missing")
	}
	if len(d.Attrs) != 2 || d.Attrs[0] != "sid" {
		t.Fatalf("attrs = %v", d.Attrs)
	}
}

func TestParseStoredDecl(t *testing.T) {
	res, err := Parse(`stored FH.doc(sid, last, loc)`)
	if err != nil {
		t.Fatal(err)
	}
	d := res.PDMS.Relation("FH.doc")
	if d == nil || d.Kind != ppl.StoredRelation || d.Arity != 3 {
		t.Fatalf("FH.doc decl = %+v", d)
	}
}

func TestParseDefine(t *testing.T) {
	res, err := Parse(`define NineDC:SkilledPerson(p, "Doctor") :- H:Doctor(p, h, l, s, e)`)
	if err != nil {
		t.Fatal(err)
	}
	ms := res.PDMS.Mappings()
	if len(ms) != 1 || ms[0].Kind != ppl.Definitional {
		t.Fatalf("mappings = %v", ms)
	}
	r := ms[0].Rule
	if r.Head.Pred != "NineDC:SkilledPerson" || r.Head.Args[1] != lang.Const("Doctor") {
		t.Fatalf("rule head = %v", r.Head)
	}
	if len(r.Body) != 1 || r.Body[0].Pred != "H:Doctor" {
		t.Fatalf("rule body = %v", r.Body)
	}
	// Auto-declared relations.
	if res.PDMS.Relation("H:Doctor") == nil || res.PDMS.Relation("NineDC:SkilledPerson") == nil {
		t.Fatal("auto-declaration missing")
	}
}

func TestParseIncludeSharedHeadVars(t *testing.T) {
	res, err := Parse(`include LH:CritBed(b,h,r,p,s) in H:CritBed(b,h,r), H:Patient(p,b,s)`)
	if err != nil {
		t.Fatal(err)
	}
	m := res.PDMS.Mappings()[0]
	if m.Kind != ppl.Inclusion {
		t.Fatalf("kind = %v", m.Kind)
	}
	// All five variables occur on both sides → head arity 5.
	if m.LHS.Head.Arity() != 5 || m.RHS.Head.Arity() != 5 {
		t.Fatalf("head arities = %d, %d", m.LHS.Head.Arity(), m.RHS.Head.Arity())
	}
}

func TestParseIncludeExistentials(t *testing.T) {
	// y exists only on the left, z only on the right → head is (x).
	res, err := Parse(`include A:R(x,y) in B:S(x,z)`)
	if err != nil {
		t.Fatal(err)
	}
	m := res.PDMS.Mappings()[0]
	if m.LHS.Head.Arity() != 1 || m.LHS.Head.Args[0] != lang.Var("x") {
		t.Fatalf("head = %v", m.LHS.Head)
	}
	if !m.LHS.HasProjection() || !m.RHS.HasProjection() {
		t.Fatal("projection flags wrong")
	}
}

func TestParseEqual(t *testing.T) {
	res, err := Parse(`equal ECC:Vehicle(v,ty,c,g,d) and NineDC:Vehicle(v,ty,c,g,d)`)
	if err != nil {
		t.Fatal(err)
	}
	m := res.PDMS.Mappings()[0]
	if m.Kind != ppl.Equality || m.LHS.Head.Arity() != 5 {
		t.Fatalf("mapping = %v", m)
	}
	if m.LHS.HasProjection() {
		t.Fatal("replication mapping should be projection-free")
	}
}

func TestParseStorage(t *testing.T) {
	res, err := Parse(`
storage FH.doc(s,l,loc) in FH:Staff(s,f,l,st,e), FH:Doctor(s,loc)
storage FH.all(s) = FH:Staff(s,f,l,st,e)
`)
	if err != nil {
		t.Fatal(err)
	}
	ss := res.PDMS.Storages()
	if len(ss) != 2 {
		t.Fatalf("storages = %v", ss)
	}
	if ss[0].Kind != ppl.StorageContainment || ss[1].Kind != ppl.StorageEquality {
		t.Fatal("storage kinds wrong")
	}
	if ss[0].Stored.Pred != "FH.doc" || len(ss[0].Query.Body) != 2 {
		t.Fatalf("storage 0 = %v", ss[0])
	}
}

func TestParseFactAndQuery(t *testing.T) {
	res, err := Parse(`
fact FH.doc("d07", "welby", "er")
fact FH.doc("d08", "house", "icu")
query q(x) :- FH:Doctor(x, l)
`)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Data.Relation("FH.doc")
	if r == nil || r.Len() != 2 {
		t.Fatalf("data = %v", res.Data)
	}
	if len(res.Queries) != 1 || res.Queries[0].Head.Pred != "q" {
		t.Fatalf("queries = %v", res.Queries)
	}
}

func TestParseComparisons(t *testing.T) {
	res, err := Parse(`query q(x) :- A:R(x, y), y >= 10, x != "zed"`)
	if err != nil {
		t.Fatal(err)
	}
	q := res.Queries[0]
	if len(q.Comps) != 2 {
		t.Fatalf("comps = %v", q.Comps)
	}
	if q.Comps[0].Op != lang.OpGE || q.Comps[0].R != lang.Const("10") {
		t.Fatalf("comp 0 = %v", q.Comps[0])
	}
	if q.Comps[1].Op != lang.OpNE || q.Comps[1].R != lang.Const("zed") {
		t.Fatalf("comp 1 = %v", q.Comps[1])
	}
}

func TestParseDefinitionalComparison(t *testing.T) {
	res, err := Parse(`define A:Big(x) :- A:N(x), x > 5`)
	if err != nil {
		t.Fatal(err)
	}
	m := res.PDMS.Mappings()[0]
	if len(m.Rule.Comps) != 1 || m.Rule.Comps[0].Op != lang.OpGT {
		t.Fatalf("rule comps = %v", m.Rule.Comps)
	}
}

func TestParseComments(t *testing.T) {
	res, err := Parse(`
# hash comment
// slash comment
fact A.r("1")  # trailing comment
`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data.Relation("A.r").Len() != 1 {
		t.Fatal("fact under comments lost")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"unknown keyword", `frobnicate A:R(x)`, "unknown statement"},
		{"unterminated string", `fact A.r("oops)`, "unterminated string"},
		{"variable in fact", `fact A.r(x)`, "must be constants"},
		{"bad storage head", `storage A:R(x) in A:S(x)`, "stored relation"},
		{"missing in", `include A:R(x) B:S(x)`, "expected"},
		{"bad define head", `define q(x) :- A:R(x)`, "must be a peer relation"},
		{"lone colon", `fact A.r(:)`, "unexpected ':'"},
		{"bad escape", `fact A.r("\q")`, "bad escape"},
		{"stray bang", `fact A.r(!)`, "unexpected '!'"},
		{"arity clash", "fact A.r(\"1\")\nfact A.r(\"1\",\"2\")", "arity"},
		{"fact arity vs storage", "storage A.r(x, y) in A:R(x, y)\nfact A.r(\"\")", "declared with arity 2"},
		{"qualified term", `query q(x) :- A:R(A:S, x)`, "cannot be a term"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("no error for %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestParseQueryHelper(t *testing.T) {
	q, err := ParseQuery(`q(f1, f2) :- FS:SameEngine(f1, f2, e), FS:Skill(f1, s), FS:Skill(f2, s)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Head.Arity() != 2 || len(q.Body) != 3 {
		t.Fatalf("q = %v", q)
	}
	if _, err := ParseQuery(`q(x) :- A:R(x) trailing`); err == nil {
		t.Fatal("trailing input accepted")
	}
}

func TestParseNumbersNegativeAndFloat(t *testing.T) {
	res, err := Parse(`fact A.r(-3, 2.5)`)
	if err != nil {
		t.Fatal(err)
	}
	tup := res.Data.Relation("A.r").Tuples()[0]
	if tup[0] != "-3" || tup[1] != "2.5" {
		t.Fatalf("tuple = %v", tup)
	}
}

func TestParseWholeEmergencyFragment(t *testing.T) {
	// A fragment of the paper's Figure 2 example, exercising all statement
	// kinds together.
	src := `
peer FS {
  SameEngine(f1, f2, e)
  AssignedTo(f, e)
  Skill(f, s)
  SameSkill(f1, f2)
  Sched(f, st, e)
}
stored FS.S1(f, e, s)
stored FS.S2(f1, f2)

define FS:SameEngine(f1, f2, e) :- FS:AssignedTo(f1, e), FS:AssignedTo(f2, e)
include FS:SameSkill(f1, f2) in FS:Skill(f1, s), FS:Skill(f2, s)
storage FS.S1(f, e, s) in FS:AssignedTo(f, e), FS:Sched(f, st, s)
storage FS.S2(f1, f2) = FS:SameSkill(f1, f2)

fact FS.S1("albert", "engine9", "x")
fact FS.S2("albert", "betty")

query q(f1, f2) :- FS:SameEngine(f1, f2, e), FS:Skill(f1, s), FS:Skill(f2, s)
`
	res, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	st := res.PDMS.Stats()
	if st.Definitional != 1 || st.Inclusions != 1 || st.StorageDescrs != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if res.Data.Size() != 2 || len(res.Queries) != 1 {
		t.Fatalf("data/queries wrong: %d facts, %d queries", res.Data.Size(), len(res.Queries))
	}
	if err := res.PDMS.ValidateQuery(res.Queries[0]); err != nil {
		t.Fatal(err)
	}
}
