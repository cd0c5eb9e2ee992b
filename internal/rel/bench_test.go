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

// BenchmarkMergeDistinct merges groups, each sorted and distinct as
// EvalUnion receives them, in four shapes:
//   - interleaved: the same three groups as BenchmarkDistinctSorted, whose
//     rows interleave one by one;
//   - disjoint: three groups of 2,500 rows over separate id ranges,
//     bulk_stream's shape, where each storing peer's keys are its own;
//   - blocks5: three groups of 2,500 rows taking turns in blocks of 5,
//     one row past minGallop, where galloping gains least;
//   - 84groups: adhoc_swarm's 84 small overlapping groups.
//
// Each shape's groups are built inside its own sub-benchmark, so no
// sub-benchmark runs beside another shape's live groups: each op allocates
// a whole answer, and GC paces it by the live heap.
func BenchmarkMergeDistinct(b *testing.B) {
	for _, c := range []struct {
		name   string
		groups func() [][]Tuple
	}{
		{"interleaved", func() [][]Tuple {
			groups := answerGroups(3, 2500)
			for i, g := range groups {
				groups[i] = SortDistinct(slices.Clone(g))
			}
			return groups
		}},
		{"disjoint", func() [][]Tuple { return blockGroups(3, 2500, 2500) }},
		{"blocks5", func() [][]Tuple { return blockGroups(3, 2500, 5) }},
		{"84groups", func() [][]Tuple { return overlapGroups(84) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			groups := c.groups()
			b.ReportAllocs()
			for b.Loop() {
				if out := MergeDistinct(groups...); len(out) == 0 {
					b.Fatal("empty union")
				}
			}
		})
	}
}

// BenchmarkSortTuplesFreshGoroutine sorts 512 rows, past the radix
// threshold, in a new goroutine each iteration, as each helper goroutine of
// the executor's union does: what a sort costs on a stack that has not
// grown yet.
func BenchmarkSortTuplesFreshGoroutine(b *testing.B) {
	src := answerGroups(1, 512)[0]
	rows := make([]Tuple, len(src))
	done := make(chan struct{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(rows, src)
		go func() {
			SortTuples(rows)
			done <- struct{}{}
		}()
		<-done
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
