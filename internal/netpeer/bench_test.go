package netpeer

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/rel"
)

// BenchmarkBindJoin measures the wire path of a skewed cross-peer join: the
// bound side holds 8 keys, the remote relation holds 20k rows of which only
// ~160 join. Bind-join ships the 8 keys and receives ~160 rows; the
// reported rows-fetched/op and bytes-recv/op metrics make the shipping
// visible next to the wall-clock cost. Every iteration starts with a cold
// fragment cache (see BenchmarkFragmentCacheRepeat for the warm case).
func BenchmarkBindJoin(b *testing.B) {
	const (
		bigRows   = 20000
		distinct  = 1000 // distinct join keys on the big side
		boundKeys = 8
	)
	small := map[string][]rel.Tuple{"S.keys": nil}
	large := map[string][]rel.Tuple{"L.rows": nil}
	for i := 0; i < boundKeys; i++ {
		small["S.keys"] = append(small["S.keys"], rel.Tuple{fmt.Sprintf("k%d", i)})
	}
	for i := 0; i < bigRows; i++ {
		large["L.rows"] = append(large["L.rows"],
			rel.Tuple{fmt.Sprintf("k%d", i%distinct), fmt.Sprintf("p%d", i)})
	}
	addr1 := startServer(b, small)
	addr2 := startServer(b, large)
	q, err := parser.ParseQuery(`q(x, y) :- S.keys(x), L.rows(x, y)`)
	if err != nil {
		b.Fatal(err)
	}
	ex := NewExecutor()
	defer ex.Close()
	for _, a := range []string{addr1, addr2} {
		if err := ex.Discover(a); err != nil {
			b.Fatal(err)
		}
	}
	base := executorCounts(ex)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.frags.lru.Clear()
		rows, err := evalOne(ex, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != boundKeys*bigRows/distinct {
			b.Fatalf("rows = %d", len(rows))
		}
	}
	b.StopTimer()
	reportWireDeltas(b, ex, base)
}

// hopFixture serves P3.s, 32 rows ("v<i>", "w<i>"), over loopback and
// returns a client connected to it.
func hopFixture(b *testing.B) *Client {
	data := rel.NewInstance()
	for i := 0; i < 32; i++ {
		data.MustAdd("P3.s", fmt.Sprintf("v%d", i), fmt.Sprintf("w%d", i))
	}
	srv := NewServer(data)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkEvalHop is the fixed cost of one hop: one Client.Eval of a
// single-atom selection, q(y) :- P3.s("v<i>", y), answered with one row.
// BenchmarkPing is its floor, the bare round trip.
func BenchmarkEvalHop(b *testing.B) {
	c := hopFixture(b)
	qs := make([]lang.CQ, 32)
	for i := range qs {
		q, err := parser.ParseQuery(fmt.Sprintf(`q(y) :- P3.s("v%d", y)`, i))
		if err != nil {
			b.Fatal(err)
		}
		qs[i] = q
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		rows, err := c.Eval(qs[i%len(qs)])
		if err != nil || len(rows) != 1 {
			b.Fatalf("rows = %v (%v)", rows, err)
		}
		i++
	}
}

// BenchmarkPing is one bare Client.Ping round trip on BenchmarkEvalHop's
// connection setup.
func BenchmarkPing(b *testing.B) {
	c := hopFixture(b)
	b.ReportAllocs()
	for b.Loop() {
		if err := c.Ping(); err != nil {
			b.Fatal(err)
		}
	}
}

// executorCounts reads every counter ex registers, by metric name.
func executorCounts(ex *Executor) map[string]uint64 {
	reg := obs.NewRegistry()
	ex.RegisterMetrics(reg)
	return reg.Snapshot().Counters
}

// reportWireDeltas reports per-op wire metrics since the base reading: the
// shipping savings (rows/bytes) and the requests paid.
func reportWireDeltas(b *testing.B, ex *Executor, base map[string]uint64) {
	now := executorCounts(ex)
	perOp := func(name string) float64 { return float64(now[name]-base[name]) / float64(b.N) }
	b.ReportMetric(perOp("wire.rows_fetched"), "rows-fetched/op")
	b.ReportMetric(perOp("wire.bytes_recv"), "bytes-recv/op")
	b.ReportMetric(perOp("wire.requests"), "requests/op")
	b.ReportMetric(float64(ex.counters.maxFrame.Load()), "max-frame-bytes")
}

// reportFragHitRate reports the fragment-cache hit rate since the base
// reading.
func reportFragHitRate(b *testing.B, ex *Executor, base map[string]uint64) {
	hits := ex.frags.hits.Load() - base["fragcache.hits"]
	if n := hits + ex.frags.misses.Load() - base["fragcache.misses"]; n > 0 {
		b.ReportMetric(float64(hits)/float64(n), "frag-hit-rate")
	}
}

// BenchmarkStreamLargeResult pins the frame-ceiling fix in benchmark form:
// one op scans a relation whose ~20MB one-shot JSON frame used to kill the
// connection at the 16MiB scanner cap. It now streams in bounded chunks —
// max-frame-bytes stays near wire.ChunkMaxBytes while bytes-recv/op
// crosses the old ceiling.
func BenchmarkStreamLargeResult(b *testing.B) {
	const (
		rows    = 2500
		valSize = 8 * 1024
	)
	pad := strings.Repeat("x", valSize)
	data := map[string][]rel.Tuple{"L.big": nil}
	for i := 0; i < rows; i++ {
		data["L.big"] = append(data["L.big"], rel.Tuple{fmt.Sprintf("k%06d", i), pad})
	}
	addr := startServer(b, data)
	ex := NewExecutor()
	defer ex.Close()
	if err := ex.Discover(addr); err != nil {
		b.Fatal(err)
	}
	q, err := parser.ParseQuery(`q(x, y) :- L.big(x, y)`)
	if err != nil {
		b.Fatal(err)
	}
	base := executorCounts(ex)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := evalOne(ex, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(ans) != rows {
			b.Fatalf("rows = %d", len(ans))
		}
	}
	b.StopTimer()
	reportWireDeltas(b, ex, base)
}

// BenchmarkBindJoinUCQFanout measures the parallel disjunct fan-out: eight
// cross-peer disjuncts that each bind-join a distinct key range, evaluated
// through one Executor (which multiplexes over the per-address pools).
func BenchmarkBindJoinUCQFanout(b *testing.B) {
	const bigRows = 20000
	small := map[string][]rel.Tuple{}
	large := map[string][]rel.Tuple{"L.rows": nil}
	for d := 0; d < 8; d++ {
		pred := fmt.Sprintf("S.k%d", d)
		small[pred] = []rel.Tuple{{fmt.Sprintf("k%d", d*100)}}
	}
	for i := 0; i < bigRows; i++ {
		large["L.rows"] = append(large["L.rows"],
			rel.Tuple{fmt.Sprintf("k%d", i%1000), fmt.Sprintf("p%d", i)})
	}
	addr1 := startServer(b, small)
	addr2 := startServer(b, large)

	var u lang.UCQ
	for d := 0; d < 8; d++ {
		q, err := parser.ParseQuery(fmt.Sprintf(`q(x, y) :- S.k%d(x), L.rows(x, y)`, d))
		if err != nil {
			b.Fatal(err)
		}
		u.Add(q)
	}
	ex := NewExecutor()
	defer ex.Close()
	for _, a := range []string{addr1, addr2} {
		if err := ex.Discover(a); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.frags.lru.Clear() // measure the fan-out, not the cache
		rows, err := ex.EvalUCQ(u)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkEvalUCQSharedAtoms measures join_mixed's DC:OnCall union: six
// disjuncts over three hospital and two fire-district peers, whose twelve
// atom steps need five distinct fetches. One fetch serves every disjunct
// that needs it, so requests/op reads 5; the cache stays warm, as in the
// benchmark's steady state, so each request is an unchanged answer.
func BenchmarkEvalUCQSharedAtoms(b *testing.B) {
	const perLoc = 4
	_, ex, u := onCallFixture(b, perLoc)
	if _, err := ex.EvalUCQ(u); err != nil {
		b.Fatal(err)
	}
	base := executorCounts(ex)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := ex.EvalUCQ(u)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3*perLoc*2*perLoc {
			b.Fatalf("rows = %d", len(rows))
		}
	}
	b.StopTimer()
	reportWireDeltas(b, ex, base)
}

// BenchmarkPushdownRepeat is bulk_stream's query in miniature: one peer
// holds a 25,000-row log over 10 keys, and the query pushes a one-key
// selection of 2,500 rows with 48-character payloads down to it, repeated
// through one executor after a warm-up run. With push-downs in the
// fragment cache each repeat is one row-free unchanged answer and a merge
// of the cached rows; without, every repeat streams, decodes and sorts
// the 2,500 rows again.
func BenchmarkPushdownRepeat(b *testing.B) {
	const keys, perKey = 10, 2500
	pad := strings.Repeat("p", 40)
	data := map[string][]rel.Tuple{"A.log": nil}
	for i := 0; i < keys*perKey; i++ {
		data["A.log"] = append(data["A.log"], rel.Tuple{fmt.Sprintf("a%d", i), fmt.Sprintf("k%d", i%keys), fmt.Sprintf("%s%08d", pad, i)})
	}
	addr := startServer(b, data)
	ex := NewExecutor()
	defer ex.Close()
	if err := ex.Discover(addr); err != nil {
		b.Fatal(err)
	}
	q, err := parser.ParseQuery(`q(i, p) :- A.log(i, "k3", p)`)
	if err != nil {
		b.Fatal(err)
	}
	u := lang.UCQ{Disjuncts: []lang.CQ{q}}
	if _, err := ex.EvalUCQ(u); err != nil {
		b.Fatal(err)
	}
	base := executorCounts(ex)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := ex.EvalUCQ(u)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != perKey {
			b.Fatalf("rows = %d", len(rows))
		}
	}
	b.StopTimer()
	reportWireDeltas(b, ex, base)
	reportFragHitRate(b, ex, base)
}

// BenchmarkFragmentCacheRepeat is the repeated-bind-join headline: the
// same skewed cross-peer join as BenchmarkBindJoin, issued repeatedly
// through one executor. "cold" refetches every fragment per query (the
// cache is cleared before each); "warm" serves cached fragments after one
// row-free unchanged answer per atom. The rows-fetched/op and bytes-recv/op
// metrics show the second and later identical queries shipping (near) zero.
func BenchmarkFragmentCacheRepeat(b *testing.B) {
	const (
		bigRows   = 20000
		distinct  = 1000
		boundKeys = 8
	)
	small := map[string][]rel.Tuple{"S.keys": nil}
	large := map[string][]rel.Tuple{"L.rows": nil}
	for i := 0; i < boundKeys; i++ {
		small["S.keys"] = append(small["S.keys"], rel.Tuple{fmt.Sprintf("k%d", i)})
	}
	for i := 0; i < bigRows; i++ {
		large["L.rows"] = append(large["L.rows"],
			rel.Tuple{fmt.Sprintf("k%d", i%distinct), fmt.Sprintf("p%d", i)})
	}
	addr1 := startServer(b, small)
	addr2 := startServer(b, large)
	q, err := parser.ParseQuery(`q(x, y) :- S.keys(x), L.rows(x, y)`)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		cold bool
	}{
		{"cold", true},
		{"warm", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ex := NewExecutor()
			defer ex.Close()
			for _, a := range []string{addr1, addr2} {
				if err := ex.Discover(a); err != nil {
					b.Fatal(err)
				}
			}
			// Warm run: every mode pays the first fetch; the benchmark
			// then measures the steady repeat.
			if _, err := evalOne(ex, q); err != nil {
				b.Fatal(err)
			}
			base := executorCounts(ex)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode.cold {
					ex.frags.lru.Clear()
				}
				rows, err := evalOne(ex, q)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != boundKeys*bigRows/distinct {
					b.Fatalf("rows = %d", len(rows))
				}
			}
			b.StopTimer()
			reportWireDeltas(b, ex, base)
			reportFragHitRate(b, ex, base)
		})
	}
}

// BenchmarkFragmentCacheUnderMutation measures the bind-join workload with
// a mutation interleaved every iteration: "touched" mutates the probed
// relation (every fragment invalidates, the cache can only pay overhead),
// "unrelated" mutates a different relation on the same peer (per-relation
// generations keep every fragment valid).
func BenchmarkFragmentCacheUnderMutation(b *testing.B) {
	const (
		bigRows   = 20000
		distinct  = 1000
		boundKeys = 8
	)
	small := map[string][]rel.Tuple{"S.keys": nil}
	large := map[string][]rel.Tuple{"L.rows": nil, "L.noise": {{"0"}}}
	for i := 0; i < boundKeys; i++ {
		small["S.keys"] = append(small["S.keys"], rel.Tuple{fmt.Sprintf("k%d", i)})
	}
	for i := 0; i < bigRows; i++ {
		large["L.rows"] = append(large["L.rows"],
			rel.Tuple{fmt.Sprintf("k%d", i%distinct), fmt.Sprintf("p%d", i)})
	}
	addr1 := startServer(b, small)
	srvLarge, addr2 := startServerH(b, large)
	q, err := parser.ParseQuery(`q(x, y) :- S.keys(x), L.rows(x, y)`)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		pred string
	}{
		{"unrelated", "L.noise"},
		{"touched", "L.rows"},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ex := NewExecutor()
			defer ex.Close()
			for _, a := range []string{addr1, addr2} {
				if err := ex.Discover(a); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := evalOne(ex, q); err != nil {
				b.Fatal(err)
			}
			base := executorCounts(ex)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tu := rel.Tuple{fmt.Sprintf("m%d", i)}
				if mode.pred == "L.rows" {
					tu = rel.Tuple{fmt.Sprintf("k%d", i%distinct), fmt.Sprintf("m%d", i)}
				}
				if err := srvLarge.AddFact(mode.pred, tu); err != nil {
					b.Fatal(err)
				}
				if _, err := evalOne(ex, q); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportWireDeltas(b, ex, base)
			reportFragHitRate(b, ex, base)
			b.ReportMetric(float64(ex.frags.invalidations.Load()-base["fragcache.invalidations"])/float64(b.N), "invalidations/op")
		})
	}
}

// BenchmarkTraceOverhead measures the cost of the tracing instrumentation
// on the cross-peer bind-join path. "sampling-off" runs with the tracer's
// knob at 0 — StartTrace returns nil and every span operation along the
// executor, client, and server paths reduces to a nil check, which is the
// default production state and must stay within noise (<5%) of the
// pre-instrumentation path. "sampling-on" traces every query: the full
// span tree is built, shipped back from the serving peers, and adopted.
func BenchmarkTraceOverhead(b *testing.B) {
	const (
		bigRows  = 4000
		distinct = 200
		keys     = 8
	)
	small := map[string][]rel.Tuple{"S.keys": nil}
	large := map[string][]rel.Tuple{"L.rows": nil}
	for i := 0; i < keys; i++ {
		small["S.keys"] = append(small["S.keys"], rel.Tuple{fmt.Sprintf("k%d", i)})
	}
	for i := 0; i < bigRows; i++ {
		large["L.rows"] = append(large["L.rows"],
			rel.Tuple{fmt.Sprintf("k%d", i%distinct), fmt.Sprintf("p%d", i)})
	}
	addr1 := startServer(b, small)
	addr2 := startServer(b, large)
	q, err := parser.ParseQuery(`q(x, y) :- S.keys(x), L.rows(x, y)`)
	if err != nil {
		b.Fatal(err)
	}
	u := lang.UCQ{Disjuncts: []lang.CQ{q}}

	for _, mode := range []struct {
		name   string
		sample int
	}{
		{"sampling-off", 0},
		{"sampling-on", 1},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ex := NewExecutor()
			defer ex.Close()
			for _, a := range []string{addr1, addr2} {
				if err := ex.Discover(a); err != nil {
					b.Fatal(err)
				}
			}
			tr := obs.NewTracer(8)
			tr.SetSampleEvery(mode.sample)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex.frags.lru.Clear() // measure the wire path every iteration
				root := tr.StartTrace("query")
				rows, err := ex.EvalUCQSpan(u, root)
				root.End()
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != keys*bigRows/distinct {
					b.Fatalf("rows = %d", len(rows))
				}
			}
		})
	}
}
