package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/lang"
	"repro/internal/rel"
)

// BenchmarkEngineUnion measures a warm union on local_durable's two shapes
// (durableUnions over 2,000 locations): a 3-disjunct selection and a
// 6-disjunct two-atom join. "caller" is EvalUCQ, which runs the disjuncts on
// the calling goroutine; "fanout" is EvalUnion at the executor's width
// (MaxUnionFanout) over the same EvalCQSpan, so the cost of handing
// microsecond disjuncts to other goroutines stays measurable.
func BenchmarkEngineUnion(b *testing.B) {
	e, sel, join := durableUnions(b, 2000)
	for _, c := range []struct {
		name string
		u    lang.UCQ
	}{{"selection", sel}, {"join", join}} {
		b.Run(c.name+"/caller", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := e.EvalUCQ(c.u); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/fanout", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := EvalUnion(c.u, nil, MaxUnionFanout, e.EvalCQSpan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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

// bulkInstance is bulk_stream's shape: three 75k-row relations A0.log,
// A1.log and A2.log of (id, key, 48-hex-digit payload) rows over 30 keys,
// inserted round-robin over the keys, so one key's rows are every 30th row.
func bulkInstance() *rel.Instance {
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
	return ins
}

// bulkKeyQuery selects one key's 2,500 rows of relation A<k>.log.
func bulkKeyQuery(k, key int) lang.CQ {
	return lang.CQ{
		Head: lang.NewAtom("q", lang.Var("i"), lang.Var("p")),
		Body: []lang.Atom{lang.NewAtom(fmt.Sprintf("A%d.log", k), lang.Var("i"), lang.Const(fmt.Sprintf("k%d", key)), lang.Var("p"))},
	}
}

// BenchmarkStoredRowsGC times one forced garbage collection over
// bulkInstance with each relation's column-1 index built. The stored rows
// and their index buckets hold no pointer, so the collector's work should
// not grow with the row count.
func BenchmarkStoredRowsGC(b *testing.B) {
	e := New(bulkInstance())
	for k := range 3 {
		if out, err := e.EvalCQ(bulkKeyQuery(k, 3)); err != nil || len(out) != 2500 {
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

// sink keeps benchmark consumers' reads from being optimized away.
var sink []byte

// BenchmarkProbeBulkKey is the server side of a bulk_stream query: StreamCQ
// streams one key's 2,500 rows of bulkInstance to a consumer that copies
// every value, as a response encoder does. Operations cycle over the three
// relations and their 30 keys, so a key's rows are seldom in cache. The
// rows of one key lie together once the first index has laid the relation
// out.
func BenchmarkProbeBulkKey(b *testing.B) {
	e := New(bulkInstance())
	var qs []lang.CQ
	for key := range 30 {
		for k := range 3 {
			qs = append(qs, bulkKeyQuery(k, key))
		}
	}
	read := func(t rel.Tuple) error {
		sink = sink[:0]
		for _, v := range t {
			sink = append(sink, v...)
		}
		return nil
	}
	for _, q := range qs[:3] {
		if err := e.StreamCQ(q, read); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.StreamCQ(qs[i%len(qs)], read); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2500), "ns/row")
}

// BenchmarkScanLaidOut: a full scan (StreamCQ of one atom, every value
// copied) over 45,000 keys of 5 rows each, inserted round-robin over the
// keys. "laid-out" probes column 0 first, which lays the relation out by
// key; "insertion" scans a relation no index has laid out. A scan walks the
// arena front to back either way, so the two should read alike.
func BenchmarkScanLaidOut(b *testing.B) {
	const keys, per = 45000, 5
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x"), lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("R", lang.Var("x"), lang.Var("y"))},
	}
	for _, laid := range []bool{true, false} {
		name := "insertion"
		if laid {
			name = "laid-out"
		}
		b.Run(name, func(b *testing.B) {
			ins := rel.NewInstance()
			for j := range keys * per {
				ins.MustAdd("R", fmt.Sprintf("k%d", j%keys), fmt.Sprintf("v%d", j))
			}
			e := New(ins)
			if laid {
				if _, err := e.ProbeByKeyBatch("R", []int{0}, [][]string{{"k7"}}); err != nil {
					b.Fatal(err)
				}
			}
			if ins.Relation("R").Rows().LaidOut() != laid {
				b.Fatalf("laid out = %v", !laid)
			}
			read := func(t rel.Tuple) error {
				sink = sink[:0]
				for _, v := range t {
					sink = append(sink, v...)
				}
				return nil
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.StreamCQ(q, read); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys*per), "ns/row")
		})
	}
}

// BenchmarkFirstProbe times the first probe of an index, which builds it
// and, over a relation no index has laid out, lays the relation out: on
// one bulkInstance relation (75k rows, 30 keys, probed on column 1) and on
// a join_mixed-shaped relation of 100k (id, location) rows over 20k
// locations, probed on column 1. Every operation probes a fresh clone.
func BenchmarkFirstProbe(b *testing.B) {
	join := rel.NewInstance()
	for j := range 100000 {
		join.MustAdd("H0.doc", fmt.Sprintf("d0_%d", j), fmt.Sprintf("loc%d", (j+1234)%20000))
	}
	for _, c := range []struct {
		name, pred, key string
		ins             *rel.Instance
	}{
		{"bulk", "A0.log", "k3", bulkInstance()},
		{"join", "H0.doc", "loc77", join},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := New(c.ins.Clone())
				b.StartTimer()
				if out, err := e.ProbeByKeyBatch(c.pred, []int{1}, [][]string{{c.key}}); err != nil || len(out) == 0 {
					b.Fatalf("%d rows (%v)", len(out), err)
				}
			}
		})
	}
}

// BenchmarkBindJoin measures a warm cross-peer rewriting's local work, its
// plan lookup and BindJoin, on join_mixed's shape, without sockets: two
// atoms joined on a location, I.inc(i, l) with 15 rows and H.doc(d, l) with
// 50 over five locations, one comparison between them, 150 answer rows.
// fetch serves each relation's rows from memory: I.inc's whole, and
// H.doc's whole for its bind, since the partial holds every location.
func BenchmarkBindJoin(b *testing.B) {
	rows := map[string][]rel.Tuple{}
	for i := range 15 {
		rows["I.inc"] = append(rows["I.inc"], rel.Tuple{fmt.Sprintf("i%02d", i), fmt.Sprintf("l%d", i%5)})
	}
	for d := range 50 {
		rows["H.doc"] = append(rows["H.doc"], rel.Tuple{fmt.Sprintf("d%02d", d), fmt.Sprintf("l%d", d%5)})
	}
	rel.SortTuples(rows["I.inc"])
	rel.SortTuples(rows["H.doc"])
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("i"), lang.Var("d")),
		Body: []lang.Atom{
			lang.NewAtom("I.inc", lang.Var("i"), lang.Var("l")),
			lang.NewAtom("H.doc", lang.Var("d"), lang.Var("l")),
		},
		Comps: []lang.Comparison{{Op: lang.OpNE, L: lang.Var("i"), R: lang.Var("d")}},
	}
	cards := []int{len(rows["I.inc"]), len(rows["H.doc"])}
	fetch := func(i int, _ []int, _ [][]string) ([]rel.Tuple, error) { return rows[q.Body[i].Pred], nil }
	pc := NewPlanCache()
	join := func() ([]rel.Tuple, error) {
		p, err := pc.Plan(q, cards)
		if err != nil {
			return nil, err
		}
		return BindJoin(p, q, fetch)
	}
	if out, err := join(); err != nil || len(out) != 150 {
		b.Fatalf("degenerate fixture: %d rows (%v)", len(out), err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := join(); err != nil {
			b.Fatal(err)
		}
	}
}
