package rel_test

// Engine-backed counterparts of the naive-evaluator benchmarks in
// bench_test.go (external test package: the engine imports rel, so these
// cannot live in package rel itself). Same data, same queries — the
// speedup between BenchmarkEvalCQ* and BenchmarkEngineEvalCQ* is the
// engine's contribution on record in the bench trajectory.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/rel"
)

func buildChain(n int, seed int64) *rel.Instance {
	rng := rand.New(rand.NewSource(seed))
	ins := rel.NewInstance()
	for i := 0; i < n; i++ {
		ins.MustAdd("E", fmt.Sprintf("n%d", rng.Intn(n/2+1)), fmt.Sprintf("n%d", rng.Intn(n/2+1)))
	}
	return ins
}

func BenchmarkEngineEvalCQTwoHopJoin(b *testing.B) {
	ins := buildChain(500, 1)
	e := engine.New(ins)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x"), lang.Var("z")),
		Body: []lang.Atom{
			lang.NewAtom("E", lang.Var("x"), lang.Var("y")),
			lang.NewAtom("E", lang.Var("y"), lang.Var("z")),
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EvalCQ(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineEvalCQSelective(b *testing.B) {
	ins := buildChain(2000, 2)
	e := engine.New(ins)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("E", lang.Const("n3"), lang.Var("y"))},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EvalCQ(q); err != nil {
			b.Fatal(err)
		}
	}
}
