package engine

import (
	"fmt"
	"testing"

	"repro/internal/lang"
	"repro/internal/rel"
)

// BenchmarkEngineUCQFanout measures the local UCQ disjunct fan-out (the
// same bounded worker pool the netpeer executor uses): 16 disjuncts, each
// a two-atom indexed join, evaluated through the parallel EvalUCQ versus a
// sequential disjunct loop over the same engine.
func BenchmarkEngineUCQFanout(b *testing.B) {
	const (
		rows      = 20000
		disjuncts = 16
	)
	ins := rel.NewInstance()
	for i := 0; i < rows; i++ {
		ins.MustAdd("E.big", fmt.Sprintf("k%d", i%1000), fmt.Sprintf("p%d", i))
	}
	for d := 0; d < disjuncts; d++ {
		ins.MustAdd(fmt.Sprintf("E.k%d", d), fmt.Sprintf("k%d", d*37))
	}
	var u lang.UCQ
	for d := 0; d < disjuncts; d++ {
		u.Add(lang.CQ{
			Head: lang.NewAtom("q", lang.Var("x"), lang.Var("y")),
			Body: []lang.Atom{
				lang.NewAtom(fmt.Sprintf("E.k%d", d), lang.Var("x")),
				lang.NewAtom("E.big", lang.Var("x"), lang.Var("y")),
			},
		})
	}
	e := New(ins)
	if rows, err := e.EvalUCQ(u); err != nil || len(rows) == 0 {
		b.Fatalf("degenerate fixture: %d rows (%v)", len(rows), err)
	}

	b.Run("fanout", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.EvalUCQ(u); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			groups := make([][]rel.Tuple, len(u.Disjuncts))
			for j, q := range u.Disjuncts {
				rows, err := e.EvalCQ(q)
				if err != nil {
					b.Fatal(err)
				}
				groups[j] = rows
			}
			if out := rel.DistinctSorted(groups...); len(out) == 0 {
				b.Fatal("no rows")
			}
		}
	})
}

// shardCountsUnderTest are the layouts the sharding benchmarks compare:
// the unsharded baseline and the default (one shard per CPU). On a
// GOMAXPROCS >= 4 machine the sharded scan target is a >= 2x speedup; at
// GOMAXPROCS = 1 both layouts take the sequential path and must be within
// noise of each other.
func shardCountsUnderTest() []int {
	counts := []int{1}
	if n := rel.DefaultShards(); n > 1 {
		counts = append(counts, n)
	} else {
		counts = append(counts, 4) // exercise the sharded layout anyway
	}
	return counts
}

// BenchmarkShardedScan: a scan-driven hash join — R and S have equal
// cardinality (so the planner's tie-break scans R, the first body atom)
// and each scanned R tuple probes S's index, with 1% of probes landing.
// The opening 100k-row scan is the part that fans out across shards; the
// per-tuple probe work below it is what the workers parallelize.
func BenchmarkShardedScan(b *testing.B) {
	const rows = 100000
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x"), lang.Var("z")),
		Body: []lang.Atom{
			lang.NewAtom("R", lang.Var("x"), lang.Var("y")),
			lang.NewAtom("S", lang.Var("y"), lang.Var("z")),
		},
	}
	for _, shards := range shardCountsUnderTest() {
		ins := rel.NewInstanceSharded(shards)
		for i := 0; i < rows; i++ {
			ins.MustAdd("R", fmt.Sprintf("k%07d", i), fmt.Sprintf("y%d", i))
		}
		for i := 0; i < rows; i++ {
			// Only the top 1% of S's join keys exist in R.
			ins.MustAdd("S", fmt.Sprintf("y%d", i+rows-rows/100), fmt.Sprintf("w%d", i))
		}
		e := New(ins)
		if out, err := e.EvalCQ(q); err != nil || len(out) != rows/100 {
			b.Fatalf("fixture: %d rows (%v)", len(out), err)
		}
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.EvalCQ(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedProbe: a 20k-key ProbeByKeyBatch over a 200k-row
// relation — the server-side bind-join substrate — fanned out across the
// per-shard indexes.
func BenchmarkShardedProbe(b *testing.B) {
	const rows, nkeys = 200000, 20000
	keys := make([][]string, nkeys)
	for i := range keys {
		keys[i] = []string{fmt.Sprintf("k%d", i*7%rows)}
	}
	for _, shards := range shardCountsUnderTest() {
		ins := rel.NewInstanceSharded(shards)
		for i := 0; i < rows; i++ {
			ins.MustAdd("R", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		}
		e := New(ins)
		if out, err := e.ProbeByKeyBatch("R", []int{0}, keys); err != nil || len(out) != nkeys {
			b.Fatalf("fixture: %d tuples (%v)", len(out), err)
		}
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := 0
				if err := e.ProbeByKeyBatchYield("R", []int{0}, keys, func(rel.Tuple) error {
					n++
					return nil
				}); err != nil || n != nkeys {
					b.Fatalf("n=%d err=%v", n, err)
				}
			}
		})
	}
}
