package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/netpeer"
	"repro/internal/parser"
	"repro/internal/rel"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/pdms"
)

// Layer probes call one layer's public functions directly, on the
// workload's own data and queries, and report the median over their
// iterations. A probe cycles its query set until it has made probeIters
// calls or used probeBudget, and always finishes the set once.
const (
	probeIters  = 200
	probeBudget = time.Second
)

// timeEach calls f(i) over n items, cycling as described above, and
// returns the median call time in microseconds of reference time: the
// calibration kernel runs between the calls, as it does between ops.
func timeEach(n int, f func(i int) error) (float64, error) {
	var us []float64
	var ref calibration
	busy := 0.0
	begin := time.Now()
	for k := 0; k < n || (k < probeIters && time.Since(begin) < probeBudget); k++ {
		t0 := time.Now()
		if err := f(k % n); err != nil {
			return 0, err
		}
		d := float64(time.Since(t0).Nanoseconds()) / 1e3
		us = append(us, d)
		busy += d / 1e3
		ref.keepUp(busy)
	}
	return medianOf(us) / ref.dilation(), nil
}

// everyNth returns every n-th element of xs, and at least one.
func everyNth(xs []string, n int) []string {
	var out []string
	for i := 0; i < len(xs); i += n {
		out = append(out, xs[i])
	}
	return out
}

// oracle loads a single-process network holding the plan's specification
// and the peers' facts: the ground truth sampled answers are compared with,
// and the local instance the engine and rel probes of the networked
// workloads run on. The local workload's oracle is the chase
// (CertainAnswers), which materializes every derived fact, so it gets only
// the facts the plan says its queries can reach.
func (p *plan) oracle() (*pdms.Network, error) {
	if p.swarm != nil {
		return pdms.Load(p.swarm.OracleSource())
	}
	net, err := pdms.Load(p.spec)
	if err != nil {
		return nil, err
	}
	err = p.facts(func(_ int, pred string, t rel.Tuple) error {
		if p.oracleKeep != nil && !p.oracleKeep(t) {
			return nil
		}
		return net.AddFact(pred, t...)
	})
	return net, err
}

// probes runs every layer probe that applies to the system and stores the
// results in m under the per-layer metric names. all is the single-process
// instance holding every fact (the oracle's, or the local network's own).
func (s *sut) probes(m map[string]float64, all *rel.Instance, scratch string) error {
	texts := s.p.probes
	if s.p.swarm == nil {
		texts = everyNth(texts, 8)
	}
	queries := make([]lang.CQ, len(texts))
	for i, t := range texts {
		q, err := parser.ParseQuery(t)
		if err != nil {
			return err
		}
		queries[i] = q
	}
	var err error
	if m["parser.parse_us"], err = timeEach(len(texts), func(i int) error {
		_, err := parser.ParseQuery(texts[i])
		return err
	}); err != nil {
		return err
	}
	unions, err := s.probeCore(m, queries)
	if err != nil {
		return err
	}
	if err := probeEngine(m, all, s.p.biggest, unions); err != nil {
		return err
	}
	rows := sampleRows(all, s.p.biggest, 20000)
	probeRel(m, s.p.biggest, rows)
	if s.exec != nil {
		probeWire(m, rows)
		return s.probeNetpeer(m, rows)
	}
	return probeStore(m, s.p.biggest, rows, scratch)
}

// probeCore times internal/core's public entry points on the mediator's
// specification and returns the full rewriting of every probe query.
func (s *sut) probeCore(m map[string]float64, queries []lang.CQ) ([]lang.UCQ, error) {
	spec := s.med.Spec()
	var err error
	if m["core.catalog_us"], err = timeEach(1, func(int) error {
		_, err := core.New(spec, core.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	r, err := core.New(spec, core.Options{})
	if err != nil {
		return nil, err
	}
	keep, err := core.New(spec, core.Options{KeepRedundant: true})
	if err != nil {
		return nil, err
	}
	n := len(queries)

	// Tree construction, with node and allocation counts. The allocation
	// count is the process's, so the servers must be idle meanwhile.
	// The allocation count is the process's, so it is taken over one pass
	// without the calibration kernel, and with the servers idle.
	var ms0, ms1 runtime.MemStats
	nodes := 0
	runtime.ReadMemStats(&ms0)
	for _, q := range queries {
		st, err := r.BuildTree(q)
		if err != nil {
			return nil, err
		}
		nodes += st.Nodes()
	}
	runtime.ReadMemStats(&ms1)
	m["core.allocs_per_node"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(nodes))
	if m["core.tree_build_us"], err = timeEach(n, func(i int) error {
		_, err := r.BuildTree(queries[i])
		return err
	}); err != nil {
		return nil, err
	}
	sec, _, err := timedPart(func() error {
		for _, q := range queries {
			if _, err := r.BuildTree(q); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["core.ns_per_node"] = ratio(sec*1e9, float64(nodes))

	if m["core.first_rewriting_us"], err = timeEach(n, func(i int) error {
		_, err := r.Stream(queries[i], func(lang.CQ) bool { return false })
		return err
	}); err != nil {
		return nil, err
	}
	if m["core.all_rewritings_us"], err = timeEach(n, func(i int) error {
		_, err := r.Stream(queries[i], func(lang.CQ) bool { return true })
		return err
	}); err != nil {
		return nil, err
	}
	unions := make([]lang.UCQ, n)
	if m["core.reformulate_us"], err = timeEach(n, func(i int) error {
		res, err := r.Reformulate(queries[i])
		unions[i] = res.UCQ
		return err
	}); err != nil {
		return nil, err
	}

	redundant := make([]lang.UCQ, n)
	for i, q := range queries {
		res, err := keep.Reformulate(q)
		if err != nil {
			return nil, err
		}
		redundant[i] = res.UCQ
	}
	before, after := 0, 0
	for _, u := range redundant {
		before += u.Len()
		after += containment.RemoveRedundant(u).Len()
	}
	m["containment.redundant_share"] = 1 - ratio(float64(after), float64(before))
	if m["containment.remove_redundant_us"], err = timeEach(n, func(i int) error {
		containment.RemoveRedundant(redundant[i])
		return nil
	}); err != nil {
		return nil, err
	}
	return unions, nil
}

// probeEngine times the local engine on the all-facts instance: one
// conjunctive rewriting per call, a 1024-key batch probe and a full scan of
// the largest relation.
func probeEngine(m map[string]float64, all *rel.Instance, biggest string, unions []lang.UCQ) error {
	eng := engine.New(all)
	var cqs []lang.CQ
	for _, u := range unions {
		cqs = append(cqs, u.Disjuncts...)
	}
	// One pass first: it builds the indexes and plans a running system
	// already has.
	for _, q := range cqs {
		if _, err := eng.EvalCQ(q); err != nil {
			return err
		}
	}
	var err error
	if m["engine.eval_cq_us"], err = timeEach(len(cqs), func(i int) error {
		_, err := eng.EvalCQ(cqs[i])
		return err
	}); err != nil {
		return err
	}

	rows := sampleRows(all, biggest, 1024)
	keys := make([][]string, len(rows))
	for i, t := range rows {
		keys[i] = []string{t[0]}
	}
	if _, err := eng.ProbeByKeyBatch(biggest, []int{0}, keys); err != nil {
		return err
	}
	us, err := timeEach(1, func(int) error {
		_, err := eng.ProbeByKeyBatch(biggest, []int{0}, keys)
		return err
	})
	if err != nil {
		return err
	}
	m["engine.probe_batch_us_per_key"] = ratio(us, float64(len(keys)))

	total := all.Relation(biggest).Len()
	us, err = timeEach(1, func(int) error {
		return eng.StreamScan(biggest, func(rel.Tuple) error { return nil })
	})
	if err != nil {
		return err
	}
	m["engine.stream_scan_rows_per_s"] = ratio(float64(total), us/1e6)
	return nil
}

// sampleRows returns up to n tuples of pred.
func sampleRows(all *rel.Instance, pred string, n int) []rel.Tuple {
	ts := all.Relation(pred).Tuples()
	if len(ts) > n {
		ts = ts[:n]
	}
	return ts
}

// probeRel times in-memory inserts of the workload's rows into a fresh
// instance and weighs the heap they hold.
func probeRel(m map[string]float64, pred string, rows []rel.Tuple) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	ins := rel.NewInstance()
	sec, _, _ := timedPart(func() error {
		for _, t := range rows {
			// The rows come out of a relation of this arity, so Add
			// cannot fail.
			_, _ = ins.Add(pred, t)
		}
		return nil
	})
	m["rel.insert_us_per_row"] = ratio(sec*1e6, float64(len(rows)))
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	m["rel.heap_bytes_per_row"] = ratio(float64(ms1.HeapAlloc)-float64(ms0.HeapAlloc), float64(len(rows)))
	runtime.KeepAlive(ins)
}

// probeWire times the frame codec on a 1024-row response built from the
// workload's rows.
func probeWire(m map[string]float64, rows []rel.Tuple) {
	if len(rows) > wire.ChunkMaxRows {
		rows = rows[:wire.ChunkMaxRows]
	}
	resp := wire.Response{Rows: wire.TuplesToRows(rows), More: true}
	frame, _ := json.Marshal(resp) // a Response of strings always marshals
	us, _ := timeEach(1, func(int) error {
		_, err := json.Marshal(resp)
		return err
	})
	m["wire.encode_rows_per_s"] = ratio(float64(len(rows)), us/1e6)
	line := append(frame, '\n')
	us, _ = timeEach(1, func(int) error {
		b, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(line)), wire.DefaultMaxFrame)
		if err != nil {
			return err
		}
		var out wire.Response
		return json.Unmarshal(b, &out)
	})
	m["wire.decode_rows_per_s"] = ratio(float64(len(rows)), us/1e6)
	m["wire.bytes_per_row"] = ratio(float64(len(line)), float64(len(rows)))
}

// probeNetpeer times single hops to the peer serving the largest relation:
// a one-row Eval, a streamed scan, and Add batches into a scratch relation.
func (s *sut) probeNetpeer(m map[string]float64, rows []rel.Tuple) error {
	c, err := netpeer.Dial(s.addrs[s.p.biggestPeer])
	if err != nil {
		return err
	}
	defer c.Close()
	pred := s.p.biggest
	args := []lang.Term{lang.Const(rows[0][0])}
	head := []lang.Term{}
	for i := 1; i < len(rows[0]); i++ {
		v := lang.Var("x" + strconv.Itoa(i))
		args, head = append(args, v), append(head, v)
	}
	one := lang.CQ{Head: lang.NewAtom("q", head...), Body: []lang.Atom{lang.NewAtom(pred, args...)}}
	if m["netpeer.hop_us"], err = timeEach(1, func(int) error {
		_, err := c.Eval(one)
		return err
	}); err != nil {
		return err
	}
	streamed := 0
	us, err := timeEach(1, func(int) error {
		streamed = 0
		return c.ScanStream(pred, func(rel.Tuple) error { streamed++; return nil })
	})
	if err != nil {
		return err
	}
	m["netpeer.hop_rows_per_s"] = ratio(float64(streamed), us/1e6)
	batch := 0
	us, err = timeEach(1, func(int) error {
		add := make([][]string, 64)
		for i := range add {
			add[i] = []string{"p" + strconv.Itoa(batch) + "_" + strconv.Itoa(i), "x"}
		}
		batch++
		_, err := c.Add("bench.scratch", add)
		return err
	})
	if err != nil {
		return err
	}
	m["netpeer.add_us_per_row"] = us / 64
	return nil
}

// probeStore journals the workload's rows into a fresh segment directory
// and replays them: what a journaled insert costs over an in-memory one,
// how many bytes the segments take per byte of values, and how fast
// Recover and Close are.
func probeStore(m map[string]float64, pred string, rows []rel.Tuple, scratch string) error {
	if err := os.RemoveAll(scratch); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	d, err := store.Open(scratch, store.Options{})
	if err != nil {
		return err
	}
	ins, _, err := d.Recover(0)
	if err != nil {
		return err
	}
	d.Attach(ins)
	var userBytes int64
	sec, _, err := timedPart(func() error {
		for _, t := range rows {
			if _, err := ins.Add(pred, t); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["store.append_us_per_row"] = sec*1e6/float64(len(rows)) - m["rel.insert_us_per_row"]
	if sec, _, err = timedPart(d.Close); err != nil {
		return err
	}
	m["store.close_ms"] = sec * 1e3
	for _, t := range rows {
		for _, v := range t {
			userBytes += int64(len(v))
		}
	}
	var disk int64
	err = filepath.WalkDir(scratch, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			disk += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	m["store.bytes_per_user_byte"] = ratio(float64(disk), float64(userBytes))
	us, err := timeEach(1, func(int) error {
		d, err := store.Open(scratch, store.Options{})
		if err != nil {
			return err
		}
		back, _, err := d.Recover(0)
		if err != nil {
			return err
		}
		if got := back.Relation(pred).Len(); got != len(rows) {
			return fmt.Errorf("store probe: replayed %d rows, want %d", got, len(rows))
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["store.replay_rows_per_s"] = ratio(float64(len(rows)), us/1e6)
	return nil
}
