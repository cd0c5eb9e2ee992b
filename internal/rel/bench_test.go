package rel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/lang"
)

// buildChainInstance makes a random edge relation for join benchmarks.
func buildChainInstance(n int, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	ins := NewInstance()
	for i := 0; i < n; i++ {
		ins.MustAdd("E", fmt.Sprintf("n%d", rng.Intn(n/2+1)), fmt.Sprintf("n%d", rng.Intn(n/2+1)))
	}
	return ins
}

func BenchmarkEvalCQTwoHopJoin(b *testing.B) {
	ins := buildChainInstance(500, 1)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x"), lang.Var("z")),
		Body: []lang.Atom{
			lang.NewAtom("E", lang.Var("x"), lang.Var("y")),
			lang.NewAtom("E", lang.Var("y"), lang.Var("z")),
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalCQ(q, ins); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalCQSelective(b *testing.B) {
	ins := buildChainInstance(2000, 2)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("E", lang.Const("n3"), lang.Var("y"))},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalCQ(q, ins); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalDatalogTransitiveClosure(b *testing.B) {
	rules := []lang.CQ{
		{Head: lang.NewAtom("T", lang.Var("x"), lang.Var("y")),
			Body: []lang.Atom{lang.NewAtom("E", lang.Var("x"), lang.Var("y"))}},
		{Head: lang.NewAtom("T", lang.Var("x"), lang.Var("z")),
			Body: []lang.Atom{
				lang.NewAtom("E", lang.Var("x"), lang.Var("y")),
				lang.NewAtom("T", lang.Var("y"), lang.Var("z"))}},
	}
	ins := NewInstance()
	for i := 0; i < 60; i++ {
		ins.MustAdd("E", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalDatalog(rules, ins); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistinctSorted unions bulk_stream's answer shape: three peers'
// groups of 2,500 (id, 48-byte payload) rows.
func BenchmarkDistinctSorted(b *testing.B) {
	groups := answerGroups(3, 2500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := DistinctSorted(groups...); len(out) == 0 {
			b.Fatal("empty union")
		}
	}
}
