package core

import (
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/rel"
)

// setup parses a spec and returns a reformulator plus the parse result.
func setup(t *testing.T, src string, opts Options) (*Reformulator, *parser.Result) {
	t.Helper()
	res, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(res.PDMS, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r, res
}

// reform reformulates a textual query.
func reform(t *testing.T, r *Reformulator, query string) Result {
	t.Helper()
	q, err := parser.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Reformulate(q)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// evalReformulated runs the reformulated UCQ over the stored data.
func evalReformulated(t *testing.T, res Result, data *rel.Instance) []rel.Tuple {
	t.Helper()
	rows, err := rel.EvalUCQ(res.UCQ, data)
	if err != nil {
		t.Fatalf("evaluating %v: %v", res.UCQ, err)
	}
	return rows
}

// assertSameTuples compares two tuple sets.
func assertSameTuples(t *testing.T, got, want []rel.Tuple, label string) {
	t.Helper()
	rel.SortTuples(got)
	rel.SortTuples(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: got %v, want %v", label, got, want)
		}
	}
}

// oracleCheck verifies reformulation answers equal chase certain answers.
func oracleCheck(t *testing.T, src, query string, opts Options) ([]rel.Tuple, Result) {
	t.Helper()
	r, res := setup(t, src, opts)
	out := reform(t, r, query)
	got := evalReformulated(t, out, res.Data)

	q, err := parser.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	want, err := chase.CertainAnswers(res.PDMS, res.Data, q, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameTuples(t, got, want, "reformulation vs chase oracle")
	return got, out
}

func TestGAVUnfoldingSimple(t *testing.T) {
	src := `
storage FH.doc(s, l) in FH:Doctor(s, l)
define H:Doctor(s, l) :- FH:Doctor(s, l)
fact FH.doc("d1", "er")
fact FH.doc("d2", "icu")
`
	rows, out := oracleCheck(t, src, `q(s) :- H:Doctor(s, l)`, Options{})
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if out.UCQ.Len() != 1 {
		t.Fatalf("UCQ = %v", out.UCQ)
	}
	if out.UCQ.Disjuncts[0].Body[0].Pred != "FH.doc" {
		t.Fatalf("rewriting = %v", out.UCQ)
	}
}

func TestGAVDisjunction(t *testing.T) {
	// P = P1 ∪ P2 via two definitional mappings.
	src := `
storage S.a(x) in A:P1(x)
storage S.b(x) in A:P2(x)
define A:P(x) :- A:P1(x)
define A:P(x) :- A:P2(x)
fact S.a("1")
fact S.b("2")
`
	rows, out := oracleCheck(t, src, `q(x) :- A:P(x)`, Options{})
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if out.UCQ.Len() != 2 {
		t.Fatalf("expected two disjuncts, got %v", out.UCQ)
	}
}

func TestLAVExpansionSimple(t *testing.T) {
	// Storage description is a join over the peer schema (LAV).
	src := `
storage LH.beds(b, p) in H:CritBed(b, h, r), H:Patient(p, b, st)
fact LH.beds("b1", "p1")
`
	rows, _ := oracleCheck(t, src, `q(b, p) :- H:CritBed(b, h, r), H:Patient(p, b, st)`, Options{})
	if len(rows) != 1 || rows[0][0] != "b1" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestLAVProjectionBlocksJoinVar(t *testing.T) {
	// The view hides the join variable: asking for it yields nothing.
	src := `
storage LH.beds(b) in H:CritBed(b, h, r)
fact LH.beds("b1")
`
	rows, _ := oracleCheck(t, src, `q(h) :- H:CritBed(b, h, r)`, Options{})
	if len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
}

// TestLocalExistentialMapsToViewExistential: an MCD may map a goal
// variable to a view's existential variable unless the rewriting needs it
// outside the goal's subtree (MiniCon's rule). Query A(0) leaves A
// existential, so B:S(0, A), reached through V(0, A), may use the first
// mapping, whose A is existential, and the tree reaches C.t. Requiring
// every variable of the parent goal's label used to block that MCD on the
// inclusion and the definitional path alike, losing the rewriting over
// C.t. When A is distinguished, or joined with a goal outside the
// subtree, the MCD stays blocked and only the D.r rewritings remain. The
// chase judges each case.
func TestLocalExistentialMapsToViewExistential(t *testing.T) {
	src := `
include C:T(x, w) in B:S(0, A)
include B:S(x, y) in A:R(x, y)
storage C.t(x, y) in C:T(x, y)
storage D.r(x, y) in A:R(x, y)
fact C.t("", "")
fact D.r("0", "5")
fact D.r("5", "1")
`
	for _, c := range []struct {
		query      string
		rewritings int
	}{
		{`A(0) :- A:R(0, A)`, 2},
		{`q(A) :- A:R(0, A)`, 1},
		{`q(z) :- A:R(0, A), A:R(A, z)`, 1},
	} {
		rows, out := oracleCheck(t, src, c.query, Options{})
		if len(rows) != 1 || out.Stats.Rewritings != c.rewritings {
			t.Fatalf("%s: rows %v, %d rewritings %v; want 1 row, %d rewritings", c.query, rows, out.Stats.Rewritings, out.UCQ, c.rewritings)
		}
	}
	// Without D.r, the C.t rewriting alone answers A(0), whether B:S(0, A)
	// is reached through an inclusion or a definitional expansion.
	for _, via := range []string{`include B:S(x, y) in A:R(x, y)`, `define A:R(x, y) :- B:S(x, y)`} {
		rows, _ := oracleCheck(t, via+`
include C:T(x, w) in B:S(0, A)
storage C.t(x, y) in C:T(x, y)
fact C.t("", "")
`, `A(0) :- A:R(0, A)`, Options{})
		if len(rows) != 1 {
			t.Fatalf("via %s: rows = %v, want the certain answer (0)", via, rows)
		}
	}
}

// TestRecursionCutCounted: the once-per-path rule lets the recursive rule
// of a transitive closure unfold once on each path, so the union covers
// paths of one and two edges only. Of the chain's 10 certain answers the
// rewritings find 7. The counter records the one cut: the recursive rule,
// banned below its own expansion. Nothing else about the tree changes.
func TestRecursionCutCounted(t *testing.T) {
	src := `
define G:T(x, z) :- G:E(x, z)
define G:T(x, z) :- G:E(x, y), G:T(y, z)
storage S.e(x, y) in G:E(x, y)
fact S.e("1", "2")
fact S.e("2", "3")
fact S.e("3", "4")
fact S.e("4", "5")
`
	r, res := setup(t, src, Options{})
	out := reform(t, r, `q(x, z) :- G:T(x, z)`)
	rows := evalReformulated(t, out, res.Data)
	q, err := parser.ParseQuery(`q(x, z) :- G:T(x, z)`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := chase.CertainAnswers(res.PDMS, res.Data, q, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 || len(want) != 10 || out.Stats.RecursionCuts != 1 {
		t.Fatalf("%d answers (chase %d), stats %+v; want 7 of 10 and 1 recursion cut", len(rows), len(want), out.Stats)
	}
	// The classification says the union is a sound subset, and why; a
	// query with no cut keeps its classification's text.
	if c := out.Classification.String(); !strings.Contains(c, "a definitional cycle was unfolded only once per path (recursion cuts: 1), so the union is a sound subset") {
		t.Fatalf("classification %q does not name the recursion cut", c)
	}
	plain := reform(t, r, `q(x, y) :- G:E(x, y)`)
	pq, err := parser.ParseQuery(`q(x, y) :- G:E(x, y)`)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.PDMS.Classify(pq).String(); plain.Stats.RecursionCuts != 0 || plain.Classification.String() != want {
		t.Fatalf("a query without a cut is classified %q, want %q", plain.Classification, want)
	}
}

func TestTransitiveChainGAVandLAV(t *testing.T) {
	// Example 1.1's transitive evaluation: C stores data; inclusions chain
	// C → B → A; the query at A must reach C's store.
	src := `
storage C.data(x, y) in C:R(x, y)
include C:R(x, y) in B:S(x, y)
include B:S(x, y) in A:T(x, y)
fact C.data("u", "v")
`
	rows, out := oracleCheck(t, src, `q(x, y) :- A:T(x, y)`, Options{})
	if len(rows) != 1 || rows[0][0] != "u" {
		t.Fatalf("rows = %v", rows)
	}
	if out.Stats.Nodes() == 0 {
		t.Fatal("stats not collected")
	}
}

func TestFigure2EmergencyExample(t *testing.T) {
	// The paper's Figure 2 rule-goal tree example, end to end.
	src := `
define FS:SameEngine(f1, f2, e) :- FS:AssignedTo(f1, e), FS:AssignedTo(f2, e)
include FS:SameSkill(f1, f2) in FS:Skill(f1, s), FS:Skill(f2, s)
storage FS.S1(f, e, s) in FS:AssignedTo(f, e), FS:Sched(f, st, s)
storage FS.S2(f1, f2) = FS:SameSkill(f1, f2)

fact FS.S1("albert", "engine9", "17:00")
fact FS.S1("betty", "engine9", "19:00")
fact FS.S1("carla", "engine3", "17:00")
fact FS.S2("albert", "betty")
`
	query := `q(f1, f2) :- FS:SameEngine(f1, f2, e), FS:Skill(f1, s), FS:Skill(f2, s)`
	// Ground truth from the chase oracle. Note the certain answers include
	// the reflexive pairs (albert,albert) and (betty,betty): from
	// SameSkill(albert,betty) the inclusion r1 entails ∃s Skill(albert,s)
	// in every consistent instance, which suffices when f1 = f2. The
	// paper's Figure 2 exposition shows only the two canonical rewritings;
	// the degenerate MCDs that recover the reflexive answers are required
	// for completeness (Section 3, Thm 3.2(1) promises ALL certain
	// answers).
	rows, out := oracleCheck(t, src, query, Options{})
	want := []rel.Tuple{
		{"albert", "albert"}, {"albert", "betty"},
		{"betty", "albert"}, {"betty", "betty"},
	}
	assertSameTuples(t, rows, want, "figure 2 certain answers")
	// The reformulation shape of the paper:
	//   Q'(f1,f2) :- S1(f1,e,_), S1(f2,e,_), S2(f1,f2)  ∪  … S2(f2,f1)
	found := false
	for _, d := range out.UCQ.Disjuncts {
		s1 := 0
		s2 := 0
		for _, a := range d.Body {
			switch a.Pred {
			case "FS.S1":
				s1++
			case "FS.S2":
				s2++
			}
		}
		if s1 == 2 && s2 == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a S1,S1,S2 rewriting, got:\n%v", out.UCQ)
	}
}

func TestCyclicReplicationTerminates(t *testing.T) {
	// ECC replicates 9DC's Vehicle (projection-free equality → cycle).
	// The once-per-path rule must terminate construction, and data stored
	// on either side must answer queries on both.
	src := `
storage D.veh(v, g) in DC:Vehicle(v, g)
storage E.veh(v, g) in ECC:Vehicle(v, g)
equal ECC:Vehicle(v, g) and DC:Vehicle(v, g)
fact D.veh("v1", "g1")
fact E.veh("v2", "g2")
`
	rows, _ := oracleCheck(t, src, `q(v) :- ECC:Vehicle(v, g)`, Options{})
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	rows2, _ := oracleCheck(t, src, `q(v) :- DC:Vehicle(v, g)`, Options{})
	if len(rows2) != 2 {
		t.Fatalf("rows = %v", rows2)
	}
}

func TestConstantSelectionInQuery(t *testing.T) {
	src := `
storage S.r(x, y) in A:R(x, y)
fact S.r("a", "1")
fact S.r("b", "2")
`
	rows, _ := oracleCheck(t, src, `q(y) :- A:R("a", y)`, Options{})
	if len(rows) != 1 || rows[0][0] != "1" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestConstantInDefinitionalHead(t *testing.T) {
	// The paper's SkilledPerson tagging example.
	src := `
storage H.doc(s) in H:Doctor(s)
storage F.sk(s) in FS:Medic(s)
define DC:Skilled(s, "Doctor") :- H:Doctor(s)
define DC:Skilled(s, "EMT") :- FS:Medic(s)
fact H.doc("d1")
fact F.sk("m1")
`
	rows, _ := oracleCheck(t, src, `q(s) :- DC:Skilled(s, "EMT")`, Options{})
	if len(rows) != 1 || rows[0][0] != "m1" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestComparisonPruningDisjointRanges(t *testing.T) {
	// Two stores partitioned by range: for x > 12 the low store's expansion
	// has an unsatisfiable label (x <= 10, x > 12) and is pruned before it
	// is built, so the rewriting uses only the high store.
	src := `
storage S.low(x) in A:R(x), x <= 10
storage S.high(x) in A:R(x), x > 10
fact S.low("5")
fact S.high("15")
`
	rows, out := oracleCheck(t, src, `q(x) :- A:R(x), x > 12`, Options{})
	if len(rows) != 1 || rows[0][0] != "15" {
		t.Fatalf("rows = %v", rows)
	}
	if strings.Contains(out.UCQ.String(), "S.low") {
		t.Fatalf("pruned reformulation still uses S.low:\n%v", out.UCQ)
	}
	// Without the pruning the low branch is built (11 nodes) and its
	// rewriting discarded at extraction.
	if out.Stats.PrunedUnsat != 1 || out.Stats.DiscardUnsat != 0 || out.Stats.Nodes() != 7 {
		t.Fatalf("stats = %+v (nodes %d), want 1 pruned, 0 discarded, 7 nodes", out.Stats, out.Stats.Nodes())
	}

	// The contradicting comparison can come from an intermediate rule node
	// rather than the query: A:T's definition adds x > 10, which rules out
	// the low store under it. A label read from the query alone would
	// build the low branch and discard its rewriting at extraction.
	src = `
define A:T(x) :- B:S(x), x > 10
storage S.low(x) in B:S(x), x < 5
storage S.high(x) in B:S(x), x > 20
fact S.low("3")
fact S.high("30")
`
	rows, out = oracleCheck(t, src, `q(x) :- A:T(x)`, Options{})
	if len(rows) != 1 || rows[0][0] != "30" {
		t.Fatalf("rows = %v", rows)
	}
	if u := out.UCQ.String(); out.UCQ.Len() != 1 || strings.Contains(u, "S.low") || !strings.Contains(u, "S.high") {
		t.Fatalf("want one rewriting over S.high only:\n%v", out.UCQ)
	}
	if out.Stats.PrunedUnsat != 1 || out.Stats.DiscardUnsat != 0 || out.Stats.Nodes() != 9 {
		t.Fatalf("stats = %+v (nodes %d), want 1 pruned, 0 discarded, 9 nodes", out.Stats, out.Stats.Nodes())
	}
}

func TestStreamFirstKStops(t *testing.T) {
	// Many replicas of the same data: streaming must stop after the first.
	src := `
storage S.r1(x) in A:R(x)
storage S.r2(x) in A:R(x)
storage S.r3(x) in A:R(x)
fact S.r1("a")
`
	r, _ := setup(t, src, Options{})
	q, err := parser.ParseQuery(`q(x) :- A:R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	_, err = r.Stream(q, func(cq lang.CQ) bool {
		count++
		return false // stop after first
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("stream yielded %d rewritings after stop", count)
	}
}

func TestMaxRewritingsOption(t *testing.T) {
	src := `
storage S.r1(x) in A:R(x)
storage S.r2(x) in A:R(x)
storage S.r3(x) in A:R(x)
`
	r, _ := setup(t, src, Options{MaxRewritings: 2, KeepRedundant: true})
	out := reform(t, r, `q(x) :- A:R(x)`)
	if out.UCQ.Len() != 2 {
		t.Fatalf("UCQ len = %d, want 2", out.UCQ.Len())
	}
}

func TestNodeBudget(t *testing.T) {
	src := `
storage S.r(x) in A:R(x)
include A:R(x) in B:S(x)
include B:S(x) in C:T(x)
`
	r, _ := setup(t, src, Options{MaxNodes: 3})
	q, err := parser.ParseQuery(`q(x) :- C:T(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Reformulate(q); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v", err)
	}
}

func TestRejectInvalidQuery(t *testing.T) {
	r, _ := setup(t, `storage S.r(x) in A:R(x)`, Options{})
	if _, err := r.Reformulate(lang.CQ{Head: lang.NewAtom("q", lang.Var("x"))}); err == nil {
		t.Fatal("empty body accepted")
	}
	q, _ := parser.ParseQuery(`q(x) :- Zzz:Nope(x)`)
	if _, err := r.Reformulate(q); err == nil {
		t.Fatal("undeclared relation accepted")
	}
}

func TestEqualityStorageBothKindsReformulate(t *testing.T) {
	src := `
storage S.ex(x) = A:R(x)
fact S.ex("1")
`
	rows, _ := oracleCheck(t, src, `q(x) :- A:R(x)`, Options{})
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestRedundancyElimination(t *testing.T) {
	// Two stores, one strictly more specific: with redundancy elimination
	// the general rewriting subsumes nothing here (different relations) —
	// but duplicated disjuncts from symmetric expansions must collapse.
	src := `
storage S.r(x, y) in A:R(x, y)
`
	r, _ := setup(t, src, Options{})
	out := reform(t, r, `q(x) :- A:R(x, x)`)
	if out.UCQ.Len() != 1 {
		t.Fatalf("UCQ = %v", out.UCQ)
	}
}

func TestMemoAndPriorityDoNotChangeAnswers(t *testing.T) {
	src := `
storage C.d1(x, y) in C:R(x, y)
storage C.d2(y, x) in C:R(x, y)
include C:R(x, y) in B:S(x, y)
define B:T(x, z) :- B:S(x, y), B:S(y, z)
fact C.d1("a", "b")
fact C.d2("c", "b")
`
	_, out := oracleCheck(t, src, `q(x, z) :- B:T(x, z)`, Options{})
	if out.Stats.Nodes() != 30 || out.Stats.Rewritings != 4 {
		t.Fatalf("stats = %+v (nodes %d), want 30 nodes, 4 rewritings", out.Stats, out.Stats.Nodes())
	}
}

func TestStatsPopulated(t *testing.T) {
	src := `
storage S.r(x) in A:R(x)
include A:R(x) in B:S(x)
`
	r, _ := setup(t, src, Options{})
	q, _ := parser.ParseQuery(`q(x) :- B:S(x)`)
	st, err := r.BuildTree(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.GoalNodes < 2 || st.RuleNodes < 1 {
		t.Fatalf("stats = %+v", st)
	}
}
