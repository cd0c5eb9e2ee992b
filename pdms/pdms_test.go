package pdms

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ppl"
)

const quickSpec = `
storage FH.doc(s, l) in FH:Doctor(s, l)
define H:Doctor(s, l) :- FH:Doctor(s, l)
fact FH.doc("d1", "er")
fact FH.doc("d2", "icu")
`

func TestLoadAndQuery(t *testing.T) {
	net, err := Load(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := net.Query(`q(s) :- H:Doctor(s, l)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 {
		t.Fatalf("answers = %v", ans)
	}
}

func TestQueryMatchesCertainAnswers(t *testing.T) {
	net, err := Load(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	q := `q(s, l) :- H:Doctor(s, l)`
	fast, err := net.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := net.CertainAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != len(oracle) {
		t.Fatalf("fast = %v oracle = %v", fast, oracle)
	}
	for i := range fast {
		if !fast[i].Equal(oracle[i]) {
			t.Fatalf("fast = %v oracle = %v", fast, oracle)
		}
	}
}

func TestExtendAdHoc(t *testing.T) {
	// The ECC joins after the fact (Example 1.1): new peer, new mapping,
	// queries over the new peer immediately reach old data.
	net, err := Load(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Extend(`include H:Doctor(s, l) in ECC:Medic(s, l)`); err != nil {
		t.Fatal(err)
	}
	// H:Doctor ⊆ ECC:Medic, so doctors are certainly medics.
	ans, err := net.Query(`q(s) :- ECC:Medic(s, l)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 {
		t.Fatalf("answers after extension = %v", ans)
	}
}

func TestAddFact(t *testing.T) {
	net, err := Load(`storage A.r(x) in A:R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	// A first fact of the wrong arity would create A.r at that arity and
	// leave every query over it unevaluable.
	if err := net.AddFact("A.r", "v", "w"); err == nil || !strings.Contains(err.Error(), "declared with arity 1") {
		t.Fatalf("fact of arity 2 into a relation of arity 1: err = %v", err)
	}
	if err := net.AddFact("A.r", "v"); err != nil {
		t.Fatal(err)
	}
	if err := net.AddFact("A:R", "v"); err == nil {
		t.Fatal("fact into peer relation accepted")
	}
	if err := net.AddFact("Nope.n", "v"); err == nil {
		t.Fatal("fact into unknown relation accepted")
	}
	ans, err := net.Query(`q(x) :- A:R(x)`)
	if err != nil || len(ans) != 1 {
		t.Fatalf("ans = %v err = %v", ans, err)
	}
}

func TestReformulateExposesStatsAndClass(t *testing.T) {
	net, err := Load(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := net.Reformulate(`q(s) :- H:Doctor(s, l)`)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rewriting.Len() != 1 {
		t.Fatalf("rewriting = %v", ref.Rewriting)
	}
	if ref.Stats.Nodes() == 0 {
		t.Fatal("stats empty")
	}
	if ref.Classification.Class != ppl.PTime {
		t.Fatalf("classification = %v", ref.Classification)
	}
}

func TestClassifyAPI(t *testing.T) {
	net, err := Load(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := net.Classify(`q(s) :- H:Doctor(s, l), s != "d1"`)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Class != ppl.CoNP {
		t.Fatalf("comparison in query should be co-NP, got %v", cl)
	}
}

func TestLoadError(t *testing.T) {
	if _, err := Load(`bogus statement`); err == nil {
		t.Fatal("parse error not surfaced")
	}
	if _, err := Load(`fact A.r("x"`); err == nil {
		t.Fatal("syntax error not surfaced")
	}
}

func TestQueryErrors(t *testing.T) {
	net, err := Load(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Query(`not a query`); err == nil {
		t.Fatal("bad query accepted")
	}
	if _, err := net.Query(`q(x) :- Un:Known(x)`); err == nil {
		t.Fatal("unknown relation accepted")
	}
}

// TestOptionsShardsSameAnswers: Options are deployment settings, so the
// unsharded layout answers exactly like the default one.
func TestOptionsShardsSameAnswers(t *testing.T) {
	src, err := os.ReadFile("../testdata/emergency.ppl")
	if err != nil {
		t.Fatal(err)
	}
	var want []Answer
	for i, opts := range []Options{{}, {Shards: 1}} {
		net, err := LoadWithOptions(string(src), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := net.Query(`q(p, c) :- ECC:SkilledPerson(p, c, w)`)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if want = got; len(want) == 0 {
				t.Fatal("no answers to compare")
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v answers %v, %+v answers %v", opts, got, Options{}, want)
		}
	}
}

func TestStats(t *testing.T) {
	net, err := Load(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	if st.StorageDescrs != 1 || st.Definitional != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExtendConflictRejected(t *testing.T) {
	net, err := Load(`storage A.r(x) in A:R(x)`)
	if err != nil {
		t.Fatal(err)
	}
	err = net.Extend(`storage A.r(x, y) in A:R2(x, y)`)
	if err == nil || !strings.Contains(err.Error(), "redeclared") {
		t.Fatalf("err = %v", err)
	}
}
