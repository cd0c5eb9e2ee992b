package rel

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
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

// BenchmarkMergeDistinct merges the same three groups as
// BenchmarkDistinctSorted, each first sorted and made distinct, as
// EvalUnion receives them.
func BenchmarkMergeDistinct(b *testing.B) {
	groups := answerGroups(3, 2500)
	for i, g := range groups {
		groups[i] = SortDistinct(slices.Clone(g))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := MergeDistinct(groups...); len(out) == 0 {
			b.Fatal("empty union")
		}
	}
}

// BenchmarkRelationInsert loads 10,000 bulk_stream-shaped rows (id, one
// of 30 keys, 48-byte payload) into a fresh relation per op.
func BenchmarkRelationInsert(b *testing.B) {
	const n = 10_000
	rows := make([]Tuple, n)
	for j, g := range answerGroups(1, n)[0] {
		rows[j] = Tuple{g[0], "k" + strconv.Itoa(j%30), g[1]}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRelation("log", 3)
		for _, t := range rows {
			if _, err := r.Insert(t); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}
