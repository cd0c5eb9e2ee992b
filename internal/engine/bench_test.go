package engine

import (
	"fmt"
	"runtime"
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

// BenchmarkScanJoin: a scan-driven hash join — R and S have equal
// cardinality (so the planner's tie-break scans R, the first body atom)
// and each scanned R tuple probes S's index, with 1% of probes landing.
func BenchmarkScanJoin(b *testing.B) {
	const rows = 100000
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x"), lang.Var("z")),
		Body: []lang.Atom{
			lang.NewAtom("R", lang.Var("x"), lang.Var("y")),
			lang.NewAtom("S", lang.Var("y"), lang.Var("z")),
		},
	}
	ins := rel.NewInstance()
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EvalCQ(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbeBatch: a 20k-key ProbeByKeyBatch over a 200k-row relation
// — the server-side bind-join substrate.
func BenchmarkProbeBatch(b *testing.B) {
	const rows, nkeys = 200000, 20000
	keys := make([][]string, nkeys)
	for i := range keys {
		keys[i] = []string{fmt.Sprintf("k%d", i*7%rows)}
	}
	ins := rel.NewInstance()
	for i := 0; i < rows; i++ {
		ins.MustAdd("R", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	e := New(ins)
	if out, err := e.ProbeByKeyBatch("R", []int{0}, keys); err != nil || len(out) != nkeys {
		b.Fatalf("fixture: %d tuples (%v)", len(out), err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := e.ProbeByKeyBatchYield("R", []int{0}, keys, func(rel.Tuple) error {
			n++
			return nil
		}); err != nil || n != nkeys {
			b.Fatalf("n=%d err=%v", n, err)
		}
	}
}

// BenchmarkStoredRowsGC times one forced garbage collection over a
// bulk-shaped instance: three 75k-row relations of (id, key, 48-hex-digit
// payload) rows over 30 keys, each with its column-1 index built. The
// stored rows and their index buckets hold no pointer, so the collector's
// work should not grow with the row count.
func BenchmarkStoredRowsGC(b *testing.B) {
	const rels, rows, keys = 3, 75000, 30
	ins := rel.NewInstance()
	for k := range rels {
		pred := fmt.Sprintf("A%d.log", k)
		for j := range rows {
			x := uint64(k)<<40 + uint64(j)
			ins.MustAdd(pred, fmt.Sprintf("a%d_%d", k, j), fmt.Sprintf("k%d", j%keys),
				fmt.Sprintf("%016x%016x%016x", x*0x9e3779b97f4a7c15, x*0xbf58476d1ce4e5b9, x*0x94d049bb133111eb))
		}
	}
	e := New(ins)
	for k := range rels {
		q := lang.CQ{
			Head: lang.NewAtom("q", lang.Var("i"), lang.Var("p")),
			Body: []lang.Atom{lang.NewAtom(fmt.Sprintf("A%d.log", k), lang.Var("i"), lang.Const("k3"), lang.Var("p"))},
		}
		if out, err := e.EvalCQ(q); err != nil || len(out) != rows/keys {
			b.Fatalf("fixture: %d rows (%v)", len(out), err)
		}
	}
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	b.StopTimer()
	runtime.KeepAlive(e)
}
