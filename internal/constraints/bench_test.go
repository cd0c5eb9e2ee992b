package constraints

import (
	"fmt"
	"testing"

	"repro/internal/lang"
)

// chainSet builds x0 < x1 < … < xn with a few constants mixed in.
func chainSet(n int) []lang.Comparison {
	var s []lang.Comparison
	for i := 0; i < n; i++ {
		s = append(s, lang.Comparison{
			Op: lang.OpLT,
			L:  lang.Var(fmt.Sprintf("x%d", i)),
			R:  lang.Var(fmt.Sprintf("x%d", i+1)),
		})
	}
	return append(s,
		lang.Comparison{Op: lang.OpGE, L: lang.Var("x0"), R: lang.Const("0")},
		lang.Comparison{Op: lang.OpLE, L: lang.Var(fmt.Sprintf("x%d", n)), R: lang.Const("100")})
}

func BenchmarkSatisfiableChain(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := chainSet(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !Satisfiable(s) {
					b.Fatal("chain should be satisfiable")
				}
			}
		})
	}
}

func BenchmarkImplies(b *testing.B) {
	s := chainSet(16)
	c := lang.Comparison{Op: lang.OpLT, L: lang.Var("x0"), R: lang.Var("x16")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Implies(s, c) {
			b.Fatal("chain should imply endpoints ordered")
		}
	}
}
