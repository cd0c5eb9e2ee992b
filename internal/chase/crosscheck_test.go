package chase

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/rel"
)

// TestChaseAgreesWithDatalogOnGAVSpecs: on purely GAV specifications
// (identity storage containments + definitional rules, no existentials
// anywhere), the chase's certain answers must equal the least fixpoint of
// the corresponding datalog program — an independent implementation of the
// same semantics through a different engine (rel.EvalDatalog).
func TestChaseAgreesWithDatalogOnGAVSpecs(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			peers := []string{"A:P", "A:Q", "B:R", "B:S"}

			var src string
			// Identity storage for two random base relations.
			base := map[string]bool{}
			for i := 0; i < 2; i++ {
				p := peers[rng.Intn(len(peers))]
				if base[p] {
					continue
				}
				base[p] = true
				src += fmt.Sprintf("storage St%d.r(x, y) in %s(x, y)\n", i, p)
				for f := 0; f < 4; f++ {
					src += fmt.Sprintf("fact St%d.r(\"c%d\", \"c%d\")\n", i, rng.Intn(3), rng.Intn(3))
				}
			}
			// Random definitional layer (chains and copies, no fresh vars
			// in heads, so no existentials).
			for i := 0; i < 3; i++ {
				h := peers[rng.Intn(len(peers))]
				b1 := peers[rng.Intn(len(peers))]
				if h == b1 {
					continue // avoid trivial self-loops for readability
				}
				if rng.Intn(2) == 0 {
					src += fmt.Sprintf("define %s(x, y) :- %s(x, y)\n", h, b1)
				} else {
					b2 := peers[rng.Intn(len(peers))]
					src += fmt.Sprintf("define %s(x, z) :- %s(x, y), %s(y, z)\n", h, b1, b2)
				}
			}
			res, err := parser.Parse(src)
			if err != nil {
				t.Fatal(err)
			}

			// Datalog program: storage descriptions become p :- store
			// rules, definitional mappings stay as-is.
			var rules []lang.CQ
			for _, s := range res.PDMS.Storages() {
				rules = append(rules, lang.CQ{
					Head: s.Query.Body[0],
					Body: []lang.Atom{s.Stored},
				})
			}
			for _, m := range res.PDMS.Mappings() {
				rules = append(rules, m.Rule)
			}
			lfp, err := rel.EvalDatalog(rules, res.Data)
			if err != nil {
				t.Fatal(err)
			}

			query := lang.CQ{
				Head: lang.NewAtom("q", lang.Var("x"), lang.Var("y")),
				Body: []lang.Atom{lang.NewAtom(peers[rng.Intn(len(peers))], lang.Var("x"), lang.Var("y"))},
			}
			want, err := rel.EvalCQ(query, lfp)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CertainAnswers(res.PDMS, res.Data, query, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rel.SortTuples(got)
			rel.SortTuples(want)
			if len(got) != len(want) {
				t.Fatalf("chase %v != datalog %v\nspec:\n%s", got, want, src)
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("chase %v != datalog %v\nspec:\n%s", got, want, src)
				}
			}
		})
	}
}

// TestChaseAlphaEquivalentBodiesAgreeWithDatalog: two definitional rules
// whose bodies are equal up to variable renaming share one cached plan in
// the chase's engine, and each must still bind its own variables. The
// second body names its variables in reverse alphabetical order and its
// head reverses the first's, so pairing a match's values with the
// variables in any order but the body's first-occurrence order shows in
// the chase's answers.
func TestChaseAlphaEquivalentBodiesAgreeWithDatalog(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			src := "storage St0.r(x, y) in A:P(x, y)\n" +
				"storage St1.r(x, y) in A:Q(x, y)\n" +
				"define B:R(x, z) :- A:P(x, y), A:Q(y, z)\n" +
				"define B:S(a, c) :- A:P(c, b), A:Q(b, a)\n"
			for i := 0; i < 6; i++ {
				src += fmt.Sprintf("fact St0.r(\"p%d\", \"m%d\")\n", rng.Intn(4), rng.Intn(3))
				src += fmt.Sprintf("fact St1.r(\"m%d\", \"q%d\")\n", rng.Intn(3), rng.Intn(4))
			}
			res, err := parser.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			var rules []lang.CQ
			for _, s := range res.PDMS.Storages() {
				rules = append(rules, lang.CQ{Head: s.Query.Body[0], Body: []lang.Atom{s.Stored}})
			}
			for _, m := range res.PDMS.Mappings() {
				rules = append(rules, m.Rule)
			}
			lfp, err := rel.EvalDatalog(rules, res.Data)
			if err != nil {
				t.Fatal(err)
			}
			for _, pred := range []string{"B:R", "B:S"} {
				query := lang.CQ{
					Head: lang.NewAtom("q", lang.Var("x"), lang.Var("y")),
					Body: []lang.Atom{lang.NewAtom(pred, lang.Var("x"), lang.Var("y"))},
				}
				want, err := rel.EvalCQ(query, lfp)
				if err != nil {
					t.Fatal(err)
				}
				got, err := CertainAnswers(res.PDMS, res.Data, query, Options{})
				if err != nil {
					t.Fatal(err)
				}
				rel.SortTuples(got)
				if len(want) == 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: chase %v, datalog %v\nspec:\n%s", pred, got, want, src)
				}
			}
		})
	}
}
