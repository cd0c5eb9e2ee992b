package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rel"
	"repro/pdms"
)

// Span names of the traced run. The op span is the root of one op; its
// children are the calls into the layers that QueryVia / Query make.
const (
	spanOp          = "op"
	spanReformulate = "pdms.reformulate"
	spanNetEval     = "netpeer.eval_ucq"
	spanEngineEval  = "engine.eval_ucq"
	spanNetAdd      = "netpeer.add"
	spanAddFact     = "pdms.add_fact"
)

// span is one timed interval of the traced run. Spans of one op share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 for an op's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

// recorder keeps one client's spans in memory. Each client goroutine owns
// its recorder, so recording takes no lock.
type recorder struct {
	base    time.Time
	first   int // id offset that keeps ids unique across clients
	spans   []span
	stats   core.Stats // summed over this client's reformulations
	reforms int
}

func (r *recorder) start(name string, parent, op int) int {
	id := r.first + len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(r.base).Nanoseconds()})
	return id
}

func (r *recorder) end(id int) {
	r.spans[id-r.first-1].End = time.Since(r.base).Nanoseconds()
}

// tracer drives ops as the pipeline QueryVia runs — Network.Reformulate,
// then EvalUCQ on the executor or on a local engine — with a span around
// each call.
type tracer struct {
	s       *sut
	clients []*recorder
	// eng evaluates rewritings of the local workload, as Network.Query's
	// own engine does (minus the answer cache, which only Query has).
	eng *engine.Engine
}

func newTracer(s *sut, clients, opsPerClient int) (*tracer, error) {
	t := &tracer{s: s}
	if s.exec == nil {
		// The tracer's own engine builds its indexes and plans here, as the
		// network's engine did in the warm-up.
		t.eng = engine.New(s.med.Data())
		for i := range s.p.warm {
			if o := &s.p.warm[i]; !o.write {
				ref, err := s.med.Reformulate(o.text)
				if err != nil {
					return nil, err
				}
				if _, err := t.eng.EvalUCQ(ref.Rewriting); err != nil {
					return nil, err
				}
			}
		}
	}
	base := time.Now()
	for c := 0; c < clients; c++ {
		t.clients = append(t.clients, &recorder{base: base, first: c * 4 * (opsPerClient + 1), spans: make([]span, 0, 3*opsPerClient)})
	}
	return t, nil
}

// retag gives a write batch's rows new ids, so that the traced replay of a
// batch inserts new facts as the untraced pass did and does not turn into a
// no-op on facts that are already there.
func retag(rows [][]string) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		c := append([]string(nil), r...)
		c[0] = "t" + c[0]
		out[i] = c
	}
	return out
}

func (t *tracer) drive(client, index int, o *op) ([]pdms.Answer, error) {
	rec := t.clients[client]
	root := rec.start(spanOp, 0, index)
	defer rec.end(root)
	if o.write {
		w := *o
		w.rows = retag(o.rows)
		name := spanNetAdd
		if t.s.exec == nil {
			name = spanAddFact
		}
		sp := rec.start(name, root, index)
		err := t.s.write(client, &w)
		rec.end(sp)
		return nil, err
	}
	sp := rec.start(spanReformulate, root, index)
	ref, err := t.s.med.Reformulate(o.text)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	addStats(&rec.stats, ref.Stats)
	rec.reforms++
	var rows []rel.Tuple
	if t.s.exec != nil {
		sp = rec.start(spanNetEval, root, index)
		rows, err = t.s.exec.EvalUCQ(ref.Rewriting)
	} else {
		sp = rec.start(spanEngineEval, root, index)
		rows, err = t.eng.EvalUCQ(ref.Rewriting)
	}
	rec.end(sp)
	return rows, err
}

func addStats(sum *core.Stats, s core.Stats) {
	sum.GoalNodes += s.GoalNodes
	sum.RuleNodes += s.RuleNodes
	sum.PrunedEmpty += s.PrunedEmpty
	sum.PrunedSubsumed += s.PrunedSubsumed
	sum.MemoHits += s.MemoHits
	sum.DeadEnds += s.DeadEnds
	sum.Rewritings += s.Rewritings
}

// spans returns every client's spans, by start time.
func (t *tracer) spans() []span {
	var all []span
	for _, r := range t.clients {
		all = append(all, r.spans...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// coreStats returns the core.Stats summed over every traced reformulation
// and how many there were.
func (t *tracer) coreStats() (core.Stats, int) {
	var sum core.Stats
	n := 0
	for _, r := range t.clients {
		addStats(&sum, r.stats)
		n += r.reforms
	}
	return sum, n
}

// traceSummary is what the per-layer metrics read off the spans.
type traceSummary struct {
	// medianUS is the median duration of the spans of each name.
	medianUS map[string]float64
	// selfNS is the summed self time of the spans of each name: duration
	// minus the part of it that child spans cover.
	selfNS map[string]float64
	// layerNS is selfNS summed over every span but the op roots.
	layerNS float64
}

// summarize folds the spans of a traced phase of ops ops. Span times are
// as the clock read them (and are written out so); the summary puts them in
// reference time, dividing by the dilation of the segment the span's op ran
// in.
func summarize(spans []span, ops int, segs []segStats) traceSummary {
	dilation := func(op int) float64 {
		for s := len(segs) - 1; s > 0; s-- {
			if op >= s*ops/len(segs) {
				return segs[s].dilation
			}
		}
		return segs[0].dilation
	}
	children := map[int]float64{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] += float64(sp.End - sp.Start)
		}
	}
	durs := map[string][]float64{}
	sum := traceSummary{medianUS: map[string]float64{}, selfNS: map[string]float64{}}
	for _, sp := range spans {
		dil := dilation(sp.Op)
		d := float64(sp.End-sp.Start) / dil
		durs[sp.Name] = append(durs[sp.Name], d/1e3)
		self := d - children[sp.ID]/dil
		sum.selfNS[sp.Name] += self
		if sp.Name != spanOp {
			sum.layerNS += self
		}
	}
	for name, ds := range durs {
		sum.medianUS[name] = medianOf(ds)
	}
	return sum
}

// share returns the named span's self time as a percentage of all layer
// self time.
func (s traceSummary) share(name string) float64 {
	if s.layerNS == 0 {
		return 0
	}
	return 100 * s.selfNS[name] / s.layerNS
}

// writeTrace writes the spans to path as one JSON document.
func writeTrace(path string, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
