package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/chase"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/rel"
	"repro/pdms"
)

// setupRounds is how many times an untraced run sets the system up: load,
// close, reopen, warm up. setup_s is the median of the rounds and recover_s
// the median of their close→reopen→warm parts; the measured phase runs on
// the last round's system.
const setupRounds = 3

// runConfig is one run of one workload.
type runConfig struct {
	w      *workload
	seed   int64
	sc     scale
	trace  bool
	outDir string
}

// value is one reported metric. Min and Max are the smallest and largest
// per-segment (or per-round) values behind a median; both are 0 when the
// metric is a single reading.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// record is the output file of one run.
type record struct {
	Workload     string         `json:"workload"`
	Why          string         `json:"why"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Smoke        bool           `json:"smoke,omitempty"`
	Trace        bool           `json:"trace"`
	Clients      int            `json:"clients"`
	Loop         string         `json:"loop"`
	Sockets      string         `json:"sockets"`
	Sizes        map[string]int `json:"sizes"`
	Env          envRecord      `json:"env"`
	Attempted    int            `json:"ops_attempted"`
	Failed       int            `json:"ops_failed"`
	Errors       []string       `json:"errors,omitempty"`
	ModeBoundary []string       `json:"mode_boundary,omitempty"`
	// QueryLatency and WriteLatency are the latency histograms behind the
	// reported percentiles, as the latency at every fifth percentile, in
	// ms.
	QueryLatency map[string]float64 `json:"query_latency_ms"`
	WriteLatency map[string]float64 `json:"write_latency_ms"`
	PhaseSeconds float64            `json:"measured_phase_s"`
	// TotalSeconds is the whole run as the clock read it, set-up rounds
	// and verification included.
	TotalSeconds float64          `json:"total_s"`
	Queries      int              `json:"queries"`
	AnswerRows   int              `json:"answer_rows"`
	Metrics      map[string]value `json:"metrics"`
	// Raw holds times as the clock read them, and the dilation the
	// calibration kernel saw in each segment of the measured phase; every
	// reported time is a raw time divided by a dilation.
	Raw struct {
		SetupS   []float64 `json:"setup_s"`
		RecoverS []float64 `json:"recover_s"`
		SegmentS []float64 `json:"segment_s"`
		Dilation []float64 `json:"dilation"`
	} `json:"raw"`
}

// corruptOracle, set by the self-test only, damages one row of the first
// oracle answer compared, so the test can see a wrong answer fail the run.
var corruptOracle bool

// runWorkload runs one workload in this process and returns its record.
// A failed op or check is reported in the record; the error return is for
// a harness that could not run at all.
func runWorkload(cfg runConfig) (*record, error) {
	w := cfg.w
	rec := &record{
		Workload: w.name, Why: w.why, Seed: cfg.seed, Seconds: cfg.sc.seconds, Smoke: cfg.sc.smoke, Trace: cfg.trace,
		Clients: w.clients, Loop: "closed", Sockets: "host loopback (127.0.0.1)", Metrics: map[string]value{},
	}
	if w.name == "local_durable" {
		rec.Sockets = "none"
	}
	rec.Env = envStart()
	began := time.Now()
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("data-%s-%d", w.name, os.Getpid()))

	// Set-up: generate, load or journal, boot, discover, one close→reopen,
	// warm-up. Every round does all of it.
	rounds := setupRounds
	sc := cfg.sc
	if cfg.trace {
		// A traced run reports no set-up time, and drives the sequence
		// twice, so it sets up once and sizes the sequence for half the
		// time.
		rounds = 1
		sc.seconds /= 2
	}
	var s *sut
	var p *plan
	var setupS, recoverS []float64
	for round := 0; round < rounds; round++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
			s = nil
			runtime.GC()
		}
		// Each part is timed in reference time: between two bursts of the
		// calibration kernel, or (the warm-up) with the kernel between ops.
		loadS, rawLoad, err := timedPart(func() (err error) {
			if p, err = w.plan(cfg.seed, sc); err != nil {
				return fmt.Errorf("generating: %w", err)
			}
			s, err = build(p, w.clients, dir)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		// A collection here, outside the clock, lets every reopen start
		// from the same heap state.
		runtime.GC()
		reopenS, rawReopen, err := timedPart(s.reopen)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("%s: reopen: %w", w.name, err)
		}
		warm := runPhase(p.warm, w.clients, s.drive)
		rec.absorb(warm, len(p.warm))
		warmS, rawWarm := 0.0, 0.0
		for i := range warm.segs {
			warmS += warm.segs[i].wall
			rawWarm += warm.segs[i].rawWall
		}
		setupS = append(setupS, loadS+reopenS+warmS)
		recoverS = append(recoverS, reopenS+warmS)
		rec.Raw.SetupS = append(rec.Raw.SetupS, rawLoad+rawReopen+rawWarm)
		rec.Raw.RecoverS = append(rec.Raw.RecoverS, rawReopen+rawWarm)
	}
	defer s.close()
	rec.Sizes = p.sizes
	runtime.GC()
	debug.FreeOSMemory()

	in := s.instrument()
	before := in.snapshot()
	t0 := time.Now()
	main := runPhase(p.main, w.clients, s.drive)
	rec.PhaseSeconds = time.Since(t0).Seconds()
	after := in.snapshot()
	rss := peakRSSMB()
	rec.absorb(main, len(p.main))
	for i := range main.segs {
		sg := &main.segs[i]
		rec.Raw.SegmentS = append(rec.Raw.SegmentS, sg.rawWall)
		rec.Raw.Dilation = append(rec.Raw.Dilation, sg.dilation)
		rec.Queries += sg.queries
		rec.AnswerRows += sg.rows
	}
	var qs []float64
	qs, rec.QueryLatency = histogram(main.segs, queryLat)

	var tr *tracer
	var traced *phaseResult
	if cfg.trace {
		var err error
		if tr, err = newTracer(s, w.clients, len(p.main)/w.clients+1); err != nil {
			return nil, err
		}
		traced = runPhase(p.main, w.clients, tr.drive)
		rec.absorb(traced, len(p.main))
	}

	writes := main
	if len(p.writes) > 0 {
		writes = runPhase(p.writes, 1, s.drive)
		rec.absorb(writes, len(p.writes))
	}
	var ws []float64
	ws, rec.WriteLatency = histogram(writes.segs, writeLat)
	rec.ModeBoundary = modeGuard(qs, ws)

	if cfg.trace {
		path := filepath.Join(cfg.outDir, w.name+".trace.json")
		if err := writeTrace(path, w.name, cfg.seed, tr.spans()); err != nil {
			return nil, err
		}
	}

	// Verification: sampled answers in full against the oracle, then every
	// acknowledged fact still there.
	orc, err := rec.verify(s, p, main)
	if err != nil {
		return nil, err
	}

	if cfg.trace {
		m := map[string]float64{}
		layerCounts(m, delta(before, after), after, float64(rec.Queries), float64(rec.AnswerRows))
		layerSpans(m, tr, main, traced)
		m["swarm.generate_ms"], m["swarm.boot_ms"] = p.generateMS, s.bootMS
		all := orc.Data()
		if s.exec == nil {
			all = s.med.Data()
		}
		if err := s.probes(m, all, dir+"-probe"); err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", w.name, err)
		}
		for _, d := range perLayer {
			rec.Metrics[d.name] = value{Value: m[d.name], Unit: d.unit}
		}
	} else {
		rec.endToEnd(main, writes, setupS, recoverS, rss)
	}
	rec.Env.finish()
	rec.TotalSeconds = time.Since(began).Seconds()
	return rec, nil
}

// absorb adds a phase's op and failure counts to the record.
func (rec *record) absorb(ph *phaseResult, ops int) {
	rec.Attempted += ops
	rec.Failed += ph.failed
	for _, e := range ph.errs {
		if len(rec.Errors) < 16 {
			rec.Errors = append(rec.Errors, e)
		}
	}
}

func (rec *record) fail(format string, args ...any) {
	rec.Failed++
	if len(rec.Errors) < 16 {
		rec.Errors = append(rec.Errors, fmt.Sprintf(format, args...))
	}
}

// endToEnd fills in the ten end-to-end metrics.
func (rec *record) endToEnd(main, writes *phaseResult, setupS, recoverS []float64, rss float64) {
	put := func(name string, st stat) {
		rec.Metrics[name] = value{Value: st.Mid, Unit: unitOf(name), Min: st.Min, Max: st.Max}
	}
	put("setup_s", statOf(setupS, median))
	put("recover_s", statOf(recoverS, median))
	put("query_p50_ms", latencyStat(main.segs, queryLat, 50))
	put("query_p90_ms", latencyStat(main.segs, queryLat, 90))
	put("queries_per_s", overSegments(main.segs, func(s *segStats) (float64, bool) {
		return float64(s.queries) / s.wall, s.queries > 0
	}))
	put("answer_rows_per_s", overSegments(main.segs, func(s *segStats) (float64, bool) {
		return float64(s.rows) / s.wall, s.queries > 0
	}))
	put("cpu_ms_per_op", overSegments(main.segs, func(s *segStats) (float64, bool) {
		return 1e3 * s.cpu / float64(s.queries+s.writes), s.queries+s.writes > 0
	}))
	put("write_p50_ms", latencyStat(writes.segs, writeLat, 50))
	put("facts_per_s", overSegments(writes.segs, func(s *segStats) (float64, bool) {
		return float64(s.facts) / s.wall, s.writes > 0
	}))
	rec.Metrics["peak_rss_mb"] = value{Value: rss, Unit: unitOf("peak_rss_mb")}
}

// verify compares the sampled answers with the oracle's and checks that
// every acknowledged fact is present (after a close and reopen, on the
// durable workload). It returns the oracle network.
func (rec *record) verify(s *sut, p *plan, main *phaseResult) (*pdms.Network, error) {
	orc, err := p.oracle()
	if err != nil {
		return nil, fmt.Errorf("loading oracle: %w", err)
	}
	answer := orc.Query
	if s.exec == nil {
		if answer, err = chaseOracle(orc); err != nil {
			return nil, fmt.Errorf("chasing the oracle: %w", err)
		}
	}
	texts := make([]string, 0, len(main.sampled))
	for t := range main.sampled {
		texts = append(texts, t)
	}
	sort.Strings(texts)
	for i, t := range texts {
		want, err := answer(t)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", t, err)
		}
		if corruptOracle && i == 0 {
			want = append([]pdms.Answer{{"corrupted"}}, want...)
		}
		if !sameAnswers(main.sampled[t], want) {
			rec.fail("%s: answer differs from the oracle's (%d rows, oracle %d)", t, len(main.sampled[t]), len(want))
		}
	}
	rec.Attempted += len(texts)

	// Every fact a write op acknowledged must be in its relation.
	written := map[string]int{}
	count := func(ops []op, passes int) {
		for i := range ops {
			if ops[i].write {
				written[ops[i].pred] += passes * len(ops[i].rows)
			}
		}
	}
	passes := 1
	if rec.Trace {
		passes = 2
	}
	count(p.warm, 1)
	count(p.main, passes)
	count(p.writes, 1)
	sizes, err := s.relationSizes()
	if err != nil {
		return nil, err
	}
	for pred, n := range written {
		if got, want := sizes[pred], p.stored[pred]+n; got != want {
			rec.fail("%s holds %d facts, want %d after %d acknowledged writes", pred, got, want, n)
		}
	}
	rec.Attempted++

	if s.exec == nil {
		// The durable instance must come back from its journal as it was.
		pre := digest(s.med.Data())
		if err := s.reopen(); err != nil {
			rec.fail("reopen after the run: %v", err)
		} else if post := digest(s.med.Data()); post != pre {
			rec.fail("instance after reopen differs from the one closed (%x vs %x)", post, pre)
		}
		rec.Attempted++
	}
	return orc, nil
}

// chaseOracle chases net's facts once and returns a function that answers
// a query over the canonical instance, as Network.CertainAnswers does per
// call: the certain answers, independent of the reformulation algorithm.
func chaseOracle(net *pdms.Network) (func(string) ([]pdms.Answer, error), error) {
	inst, err := chase.Chase(net.Spec(), net.Data(), chase.Options{})
	if err != nil {
		return nil, err
	}
	eng := engine.New(inst)
	return func(text string) ([]pdms.Answer, error) {
		q, err := parser.ParseQuery(text)
		if err != nil {
			return nil, err
		}
		rows, err := eng.EvalCQ(q)
		if err != nil {
			return nil, err
		}
		out := rows[:0]
	rows:
		for _, t := range rows {
			for _, v := range t {
				if chase.IsNull(v) {
					continue rows
				}
			}
			out = append(out, t)
		}
		return out, nil
	}, nil
}

// relationSizes returns the cardinality of every stored relation, asked of
// the serving peers over the wire or read from the local instance.
func (s *sut) relationSizes() (map[string]int, error) {
	out := map[string]int{}
	if s.exec == nil {
		for _, pred := range s.med.Data().Relations() {
			out[pred] = s.med.Data().Relation(pred).Len()
		}
		return out, nil
	}
	for peer := range s.addrs {
		c, err := s.writer(0, peer)
		if err != nil {
			return nil, err
		}
		cards, err := c.CatalogStats()
		if err != nil {
			return nil, err
		}
		for pred, n := range cards {
			out[pred] = n
		}
	}
	return out, nil
}

// digest is an order-independent hash of an instance's relations and
// tuples.
func digest(ins *rel.Instance) uint64 {
	var sum uint64
	for _, pred := range ins.Relations() {
		for _, t := range ins.Relation(pred).Tuples() {
			h := fnv.New64a()
			h.Write([]byte(pred))
			h.Write([]byte{0})
			h.Write([]byte(t.Key()))
			sum += h.Sum64()
		}
	}
	return sum
}

// sameAnswers reports whether two answers hold the same set of tuples.
func sameAnswers(a, b []pdms.Answer) bool {
	keys := func(xs []pdms.Answer) []string {
		out := make([]string, len(xs))
		for i, t := range xs {
			out[i] = t.Key()
		}
		sort.Strings(out)
		return out
	}
	ka, kb := keys(a), keys(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// layerCounts derives the count metrics from the counter snapshots taken
// around the untraced measured phase. d holds the deltas, end the values
// at the end of the phase (for gauges); queries and rows are the phase's
// totals.
func layerCounts(m map[string]float64, d, end counts, queries, rows float64) {
	m["pdms.reform_cache_hit_rate"] = ratio(d["pdms.reform_cache.hits"], d["pdms.reform_cache.hits"]+d["pdms.reform_cache.misses"])
	m["pdms.answer_cache_hit_rate"] = ratio(d["pdms.answer_cache.hits"], d["pdms.answer_cache.hits"]+d["pdms.answer_cache.misses"])
	m["pdms.invalidations"] = d["pdms.invalidations"]

	m["netpeer.requests_per_query"] = ratio(d["wire.requests"], queries)
	m["netpeer.rows_fetched_per_answer_row"] = ratio(d["wire.rows_fetched"], rows)
	m["netpeer.bind_batches_per_query"] = ratio(d["wire.bind_batches"], queries)
	m["netpeer.bind_pipelined_share"] = ratio(d["wire.bind_batches_pipelined"], d["wire.bind_batches"])
	m["netpeer.dials"] = d["wire.dials"]
	m["netpeer.pool_waits"] = d["wire.pool_waits"]
	m["netpeer.busy_retries"] = d["wire.busy_retries"]
	m["fragcache.hit_rate"] = ratio(d["fragcache.hits"], d["fragcache.hits"]+d["fragcache.misses"])
	m["fragcache.revalidations_per_query"] = ratio(d["fragcache.revalidations"], queries)
	m["fragcache.invalidations"] = d["fragcache.invalidations"]
	m["fragcache.evictions"] = d["fragcache.evictions"]
	m["fragcache.bytes"] = end["fragcache.bytes"]
	m["server.requests"] = d["server.requests"]
	m["server.rows_served"] = d["server.rows_served"]
	m["server.shed"] = d["server.shed"]
	m["server.read_errors"] = d["server.read_errors"]
	m["wire.bytes_sent_per_query"] = ratio(d["wire.bytes_sent"], queries)
	m["wire.bytes_recv_per_query"] = ratio(d["wire.bytes_recv"], queries)
	m["wire.max_frame_bytes"] = end["wire.max_frame_bytes"]

	m["engine.probes_per_query"] = ratio(d["engine.probes"], queries)
	m["engine.scans_per_query"] = ratio(d["engine.scans"], queries)
	m["engine.plans_compiled"] = d["engine.plans_compiled"]
	m["engine.indexes_built"] = d["engine.indexes_built"]
}

// layerSpans derives the time metrics of the pipeline from the traced run,
// and the two metrics that judge the tracing itself.
func layerSpans(m map[string]float64, tr *tracer, main, traced *phaseResult) {
	sum := summarize(tr.spans(), len(tr.s.p.main), traced.segs)
	m["pdms.reformulate_us"] = sum.medianUS[spanReformulate]
	m["pdms.reformulate_share_pct"] = sum.share(spanReformulate)
	m["netpeer.eval_ucq_us"] = sum.medianUS[spanNetEval]
	m["netpeer.eval_ucq_share_pct"] = sum.share(spanNetEval)
	m["engine.eval_ucq_us"] = sum.medianUS[spanEngineEval]
	m["engine.eval_ucq_share_pct"] = sum.share(spanEngineEval)

	st, n := tr.coreStats()
	q := float64(n)
	m["core.nodes_per_query"] = ratio(float64(st.Nodes()), q)
	m["core.rewritings_per_query"] = ratio(float64(st.Rewritings), q)
	m["core.pruned_empty"] = ratio(float64(st.PrunedEmpty), q)
	m["core.pruned_subsumed"] = ratio(float64(st.PrunedSubsumed), q)
	m["core.memo_hits"] = ratio(float64(st.MemoHits), q)
	m["core.dead_ends"] = ratio(float64(st.DeadEnds), q)

	wall := func(ph *phaseResult) (w float64) {
		for i := range ph.segs {
			w += ph.segs[i].wall
		}
		return w
	}
	latency := 0.0
	for i := range main.segs {
		for _, ms := range main.segs[i].qlat {
			latency += ms
		}
		for _, ms := range main.segs[i].wlat {
			latency += ms
		}
	}
	m["bench.trace_overhead_pct"] = 100 * (ratio(wall(traced), wall(main)) - 1)
	m["bench.span_coverage_pct"] = 100 * ratio(sum.layerNS/1e6, latency)
}

// recordPath names the output file of a run of workload.
func recordPath(outDir, workload string, trace bool) string {
	if trace {
		return filepath.Join(outDir, workload+".layers.json")
	}
	return filepath.Join(outDir, workload+".json")
}

// writeRecord writes rec to its output file and returns the path.
func writeRecord(rec *record, outDir string) (string, error) {
	path := recordPath(outDir, rec.Workload, rec.Trace)
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
