package pdms

import (
	"fmt"
	"testing"
)

// benchNetwork builds a moderately-sized network: one mediated relation
// backed by several stores with a few hundred facts.
func benchNetwork(b *testing.B) *Network {
	b.Helper()
	spec := ""
	for s := 0; s < 4; s++ {
		spec += fmt.Sprintf("storage P%d.r(x, y) in A:R(x, y)\n", s)
	}
	spec += "include A:R(x, y) in B:S(x, y)\n"
	net, err := Load(spec)
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		for i := 0; i < 100; i++ {
			if err := net.AddFact(fmt.Sprintf("P%d.r", s),
				fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i%10)); err != nil {
				b.Fatal(err)
			}
		}
	}
	return net
}

// BenchmarkQueryCached measures the steady-state hot path: identical
// queries served from the generation-keyed answer cache.
func BenchmarkQueryCached(b *testing.B) {
	net := benchNetwork(b)
	const q = `q(x) :- B:S(x, "v3")`
	if _, err := net.Query(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryUncached measures the same query with the cache defeated
// by a mutation per iteration — reformulation cache still hits (the spec
// is unchanged) but execution reruns through the engine.
func BenchmarkQueryUncached(b *testing.B) {
	net := benchNetwork(b)
	const q = `q(x) :- B:S(x, "v3")`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.AddFact("P0.r", fmt.Sprintf("extra%d", i), "v3"); err != nil {
			b.Fatal(err)
		}
		if _, err := net.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryUnderMutation is the hit-rate-under-mutation headline: a
// sustained mixed workload where every iteration mutates relation W.w and
// queries a *disjoint* relation A-family query. With the old whole-network
// generation counter every AddFact invalidated everything (hit rate ~0 on
// this workload); with per-relation generation vectors the A-family
// answers survive the W.w mutations (hit rate ~1). The hit-rate/op metric
// makes the difference machine-readable.
func BenchmarkQueryUnderMutation(b *testing.B) {
	load := func(b *testing.B) *Network {
		net := benchNetwork(b)
		if err := net.Extend(`storage W.w(x) in W:Log(x)`); err != nil {
			b.Fatal(err)
		}
		return net
	}
	const q = `q(x) :- B:S(x, "v3")`

	b.Run("mutate-unrelated", func(b *testing.B) {
		net := load(b)
		if _, err := net.Query(q); err != nil {
			b.Fatal(err)
		}
		hits0, misses0, inv0 := net.answers.Hits.Load(), net.answers.Misses.Load(), net.invalidations.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := net.AddFact("W.w", fmt.Sprintf("log%d", i)); err != nil {
				b.Fatal(err)
			}
			if _, err := net.Query(q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportHitRate(b, net, hits0, misses0, inv0)
	})
	b.Run("mutate-touched", func(b *testing.B) {
		net := load(b)
		if _, err := net.Query(q); err != nil {
			b.Fatal(err)
		}
		hits0, misses0, inv0 := net.answers.Hits.Load(), net.answers.Misses.Load(), net.invalidations.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := net.AddFact("P0.r", fmt.Sprintf("extra%d", i), "v9"); err != nil {
				b.Fatal(err)
			}
			if _, err := net.Query(q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportHitRate(b, net, hits0, misses0, inv0)
	})
}

// reportHitRate reports net's answer-cache hit rate and invalidation count
// since the given counter readings, normalized per benchmark op.
func reportHitRate(b *testing.B, net *Network, hits0, misses0, inv0 uint64) {
	hits, misses := net.answers.Hits.Load()-hits0, net.answers.Misses.Load()-misses0
	if hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "hit-rate")
	}
	b.ReportMetric(float64(net.invalidations.Load()-inv0)/float64(b.N), "invalidations/op")
}

// BenchmarkCertainAnswers measures the chase oracle per call: every call
// clones the stored data, chases it to the canonical instance through one
// engine's indexed joins, and answers the query over the result. The
// network is benchNetwork's shape at 4 × 2,000 stored facts, plus a
// second stored relation that a mapping joins with the first.
func BenchmarkCertainAnswers(b *testing.B) {
	spec := ""
	for s := 0; s < 4; s++ {
		spec += fmt.Sprintf("storage P%d.r(x, y) in A:R(x, y)\n", s)
	}
	spec += "storage Q.t(y, z) in A:T(y, z)\n"
	spec += "include A:R(x, y) in B:S(x, y)\n"
	spec += "include A:R(x, y), A:T(y, z) in B:J(x, z)\n"
	net, err := Load(spec)
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		for i := 0; i < 2000; i++ {
			if err := net.AddFact(fmt.Sprintf("P%d.r", s),
				fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i%10)); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		if err := net.AddFact("Q.t", fmt.Sprintf("v%d", i), fmt.Sprintf("z%d", i%3)); err != nil {
			b.Fatal(err)
		}
	}
	const q = `q(x) :- B:J(x, "z1")`
	b.ReportAllocs()
	for b.Loop() {
		ans, err := net.CertainAnswers(q)
		if err != nil {
			b.Fatal(err)
		}
		// x ranges over k0…k1999 whose y is v1, v4 or v7.
		if len(ans) != 600 {
			b.Fatalf("%d answers", len(ans))
		}
	}
}
