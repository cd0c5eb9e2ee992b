package engine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rel"
)

// ErrStop is returned by an Enumerate yield callback to stop enumeration
// early without error.
var ErrStop = errors.New("engine: stop enumeration")

// errCanceled unwinds a parallel worker once another worker has already
// recorded the run's outcome; it is never returned to callers.
var errCanceled = errors.New("engine: canceled")

// fanOut is the shared scaffolding of the engine's bounded shard fan-outs
// (parallel scans, parallel probe batches): a serialized-yield mutex, a
// stop flag every worker polls, and first-error-wins bookkeeping. The
// recorded error may be ErrStop — each call site applies its own ErrStop
// policy, but the cancellation machinery stays in one place.
type fanOut struct {
	yieldMu  sync.Mutex
	stop     atomic.Bool
	once     sync.Once
	firstErr error
}

// fail records the outcome (first call wins) and drains the pool.
func (f *fanOut) fail(err error) {
	f.once.Do(func() { f.firstErr = err })
	f.stop.Store(true)
}

// dispatch feeds items 0..items-1 through an unbuffered queue to workers
// goroutines running worker, waits for them, and returns the recorded
// outcome. Workers must skip (not abandon) queue items once f.stop is set
// so the feeder never blocks.
func (f *fanOut) dispatch(workers, items int, worker func(queue <-chan int)) error {
	queue := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(queue)
		}()
	}
	for i := 0; i < items; i++ {
		queue <- i
	}
	close(queue)
	wg.Wait()
	return f.firstErr
}

// parallelScanMinRows gates shard fan-out for full scans: below it the
// sequential path wins (goroutine + merge overhead beats the work saved).
// Var, not const, so tests can force the parallel path on small fixtures.
var parallelScanMinRows = 4096

// parallelProbeMinKeys gates shard fan-out for ProbeByKeyBatchYield the
// same way, by bound-key count.
var parallelProbeMinKeys = 64

// scanWorkersOverride, when > 0, fixes the shard worker-pool size (tests
// force parallelism on single-CPU machines with it); 0 means one worker
// per schedulable CPU.
var scanWorkersOverride = 0

// scanWorkers returns the bounded worker-pool size for shard fan-out.
func scanWorkers() int {
	if scanWorkersOverride > 0 {
		return scanWorkersOverride
	}
	return runtime.GOMAXPROCS(0)
}

// index is a set of per-shard hash indexes over one relation for one
// bound-position set: per shard, the key projects the tuple onto cols and
// buckets hold the matching tuples of that shard. Indexes are built lazily
// on first probe and each shard's half is maintained incrementally by
// consuming that shard's append-only insert log — under the shard's own
// lock, so probes routed to different shards never contend.
type index struct {
	cols   []int
	shards []idxShard
}

type idxShard struct {
	// mu's read lock covers the fast path (sub-index already caught up
	// with its shard's log), so concurrent probes of one shard proceed in
	// parallel; the write lock is only taken to consume new log entries.
	mu sync.RWMutex
	// consumed is how many log entries this sub-index has folded in,
	// guarded by mu.
	consumed uint64
	// buckets maps composite probe keys to matching tuples, guarded by mu.
	buckets map[string][]rel.Tuple
}

func bucketKey(t rel.Tuple, cols []int) string {
	if len(cols) == 1 {
		return t[cols[0]]
	}
	var key []byte
	for _, c := range cols {
		key = rel.AppendKeyPart(key, t[c])
	}
	return string(key)
}

// appendProbeKey assembles the composite probe key for vals (one value per
// probed column) into dst, in the same encoding bucketKey uses.
func appendProbeKey(dst []byte, vals []string) []byte {
	if len(vals) == 1 {
		return append(dst, vals[0]...)
	}
	for _, v := range vals {
		dst = rel.AppendKeyPart(dst, v)
	}
	return dst
}

// Engine evaluates conjunctive queries and unions of conjunctive queries
// over a rel.Instance using lazily-built per-shard hash indexes,
// distinct-value-statistics join ordering, and shard-parallel scans and
// probes. It is the indexed replacement for the naive evaluator in package
// rel (which remains the reference oracle).
//
// Concurrency: concurrent evaluations are safe with each other, and the
// underlying sharded relations tolerate concurrent inserts (each shard
// self-synchronizes); callers that need one atomic point-in-time answer
// across mutations still serialize them externally (pdms.Network,
// netpeer.Server). Indexes catch up with inserts shard by shard on the
// next probe.
type Engine struct {
	data *rel.Instance
	// plans caches compiled plans keyed by canonicalized query.
	plans *LRU

	// mu guards the two-level index map. Probes take the read lock only to
	// locate the *index for their (relation, column-set); all bucket state
	// is then guarded per shard inside the index, so concurrent probes of
	// different shards proceed in parallel.
	mu      sync.RWMutex
	indexes map[string]map[string]*index // pred -> column-set key -> index; guarded by mu

	// probes counts index-probe step entries and scans full-scan step
	// entries (one per step entry, however many shards a scan fans out
	// over); parallelScans counts the scan steps that fanned out over the
	// shard worker pool (a subset of scans).
	probes, scans, parallelScans obs.Counter
	// plansCompiled counts plan compilations; planHits and planMisses count
	// the plan cache's lookups.
	plansCompiled, planHits, planMisses obs.Counter
	// indexesBuilt counts distinct (relation, column-set) indexes created;
	// an index covers every shard of its relation.
	indexesBuilt obs.Counter
}

// New returns an engine over ins.
func New(ins *rel.Instance) *Engine {
	e := &Engine{data: ins, indexes: map[string]map[string]*index{}}
	e.plans = NewLRU(1024, &e.planHits, &e.planMisses)
	return e
}

// card returns pred's cardinality, the planner's one statistic; an absent
// relation has none.
func (e *Engine) card(pred string) int {
	if r := e.data.Relation(pred); r != nil {
		return r.Len()
	}
	return 0
}

// getIndex returns (creating if needed) the per-shard index set of r for
// the bound-position set cols.
func (e *Engine) getIndex(r *rel.Relation, cols []int) *index {
	ck := colsKey(cols)
	e.mu.RLock()
	idx := e.indexes[r.Name()][ck]
	e.mu.RUnlock()
	if idx != nil {
		return idx
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	byCols := e.indexes[r.Name()]
	if byCols == nil {
		byCols = map[string]*index{}
		e.indexes[r.Name()] = byCols
	}
	idx = byCols[ck]
	if idx == nil {
		idx = &index{cols: cols, shards: make([]idxShard, r.NumShards())}
		for i := range idx.shards {
			//lint:ignore lockcheck the index is freshly built and unpublished; no probe can reach its shard locks until byCols[ck] is set below
			idx.shards[i].buckets = map[string][]rel.Tuple{}
		}
		byCols[ck] = idx
		e.indexesBuilt.Add(1)
	}
	return idx
}

// probeShard answers one shard's half of a probe: catch the shard index up
// with the shard's insert log if it has grown, then look the key up. The
// returned bucket must not be mutated.
func probeShard(r *rel.Relation, idx *index, s int, key []byte) []rel.Tuple {
	ish := &idx.shards[s]
	ish.mu.RLock()
	if ish.consumed == r.ShardVersion(s) {
		b := ish.buckets[string(key)]
		ish.mu.RUnlock()
		return b
	}
	ish.mu.RUnlock()
	ish.mu.Lock()
	added := r.ShardAddedSince(s, ish.consumed)
	for _, t := range added {
		k := bucketKey(t, idx.cols)
		ish.buckets[k] = append(ish.buckets[k], t)
	}
	ish.consumed += uint64(len(added))
	b := ish.buckets[string(key)]
	ish.mu.Unlock()
	return b
}

// probe returns the tuples of r whose projection onto cols equals vals
// (one value per column). When cols includes the partitioning column 0 the
// probe is routed to the single shard that can hold matches and returns
// that shard's bucket directly; otherwise every shard is consulted and the
// matches are merged into scratch. It returns the result and the (possibly
// grown) scratch buffer for reuse — the result may alias either a shared
// index bucket or the scratch, so callers must treat it as read-only and
// must not retain it past the next probe that reuses the same scratch.
func (e *Engine) probe(r *rel.Relation, cols []int, vals []string, kb *[]byte, scratch []rel.Tuple) ([]rel.Tuple, []rel.Tuple) {
	key := appendProbeKey((*kb)[:0], vals)
	*kb = key
	idx := e.getIndex(r, cols)
	if r.NumShards() == 1 {
		return probeShard(r, idx, 0, key), scratch
	}
	for i, c := range cols {
		if c == 0 {
			return probeShard(r, idx, r.ShardFor(vals[i]), key), scratch
		}
	}
	scratch = scratch[:0]
	for s := 0; s < r.NumShards(); s++ {
		scratch = append(scratch, probeShard(r, idx, s, key)...)
	}
	return scratch, scratch
}

// ProbeByKeyBatchYield invokes yield once per distinct tuple of pred whose
// projection onto cols equals one of keys, building (or incrementally
// catching up) the same lazy per-shard hash indexes that regular probe
// steps use. Every key must supply len(cols) values. Tuples stream out as
// the keys are probed — nothing beyond the dedup set is materialized —
// which is the server-side substrate for netpeer's chunked bind responses.
// Large batches over a sharded relation fan the probing out across a
// bounded worker pool; yields are serialized, but their order across keys
// is then unspecified. Returning ErrStop from yield ends the stream without
// error.
func (e *Engine) ProbeByKeyBatchYield(pred string, cols []int, keys [][]string, yield func(rel.Tuple) error) error {
	if len(cols) == 0 {
		return fmt.Errorf("engine: ProbeByKeyBatch on %s needs at least one column", pred)
	}
	r := e.data.Relation(pred)
	if r == nil {
		return nil
	}
	for _, c := range cols {
		if c < 0 || c >= r.Arity() {
			return fmt.Errorf("engine: ProbeByKeyBatch column %d out of range for %s/%d", c, pred, r.Arity())
		}
	}
	for _, key := range keys {
		if len(key) != len(cols) {
			return fmt.Errorf("engine: ProbeByKeyBatch key %v has %d values, want %d", key, len(key), len(cols))
		}
	}
	workers := min(scanWorkers(), r.NumShards())
	if r.NumShards() > 1 && workers > 1 && len(keys) >= parallelProbeMinKeys {
		return e.probeBatchParallel(r, cols, keys, workers, yield)
	}
	seen := map[string]bool{}
	var kb []byte
	var scratch []rel.Tuple
	for _, key := range keys {
		e.probes.Add(1)
		var tuples []rel.Tuple
		tuples, scratch = e.probe(r, cols, key, &kb, scratch)
		for _, t := range tuples {
			if k := t.Key(); !seen[k] {
				seen[k] = true
				if err := yield(t); err != nil {
					if errors.Is(err, ErrStop) {
						return nil
					}
					return err
				}
			}
		}
	}
	return nil
}

// probeBatchChunk is how many keys one parallel probe task claims at a
// time: large enough to amortize channel traffic, small enough to balance
// skewed batches.
const probeBatchChunk = 256

// probeBatchParallel fans a large bound-key batch out over the shard worker
// pool. Each worker probes its keys' shards independently (per-shard index
// locks keep them from contending unless the keys are skewed onto one
// shard); the dedup set and the yield are serialized under the fan-out's
// mutex.
func (e *Engine) probeBatchParallel(r *rel.Relation, cols []int, keys [][]string, workers int, yield func(rel.Tuple) error) error {
	f := &fanOut{}
	seen := map[string]bool{}
	chunks := (len(keys) + probeBatchChunk - 1) / probeBatchChunk
	err := f.dispatch(workers, chunks, func(queue <-chan int) {
		var kb []byte
		var scratch []rel.Tuple
		for ci := range queue {
			if f.stop.Load() {
				continue
			}
			start := ci * probeBatchChunk
			end := min(start+probeBatchChunk, len(keys))
			for _, key := range keys[start:end] {
				if f.stop.Load() {
					break
				}
				e.probes.Add(1)
				var tuples []rel.Tuple
				tuples, scratch = e.probe(r, cols, key, &kb, scratch)
				if len(tuples) == 0 {
					continue
				}
				f.yieldMu.Lock()
				// Re-check under the mutex: a sibling may have recorded
				// ErrStop (or an error) while this worker was blocked on
				// the lock, and the stream contract forbids yielding past
				// that point.
				if f.stop.Load() {
					f.yieldMu.Unlock()
					break
				}
				for _, t := range tuples {
					if k := t.Key(); !seen[k] {
						seen[k] = true
						if err := yield(t); err != nil {
							f.fail(err)
							break
						}
					}
				}
				f.yieldMu.Unlock()
			}
		}
	})
	// ProbeByKeyBatchYield's contract: ErrStop ends the stream cleanly.
	if err != nil && !errors.Is(err, ErrStop) {
		return err
	}
	return nil
}

// ProbeByKeyBatch is ProbeByKeyBatchYield materialized: it returns the
// distinct matching tuples as a slice (in unspecified order for large
// batches over sharded relations).
func (e *Engine) ProbeByKeyBatch(pred string, cols []int, keys [][]string) ([]rel.Tuple, error) {
	var out []rel.Tuple
	err := e.ProbeByKeyBatchYield(pred, cols, keys, func(t rel.Tuple) error {
		out = append(out, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// StreamScan invokes yield once per tuple of pred, shard by shard in
// insertion order within each shard (no sort, no materialization — the
// per-shard logs are already distinct). It is the streaming substrate for
// the netpeer server's "scan" op. Returning ErrStop from yield ends the
// stream without error. An absent relation yields nothing.
func (e *Engine) StreamScan(pred string, yield func(rel.Tuple) error) error {
	r := e.data.Relation(pred)
	if r == nil {
		return nil
	}
	e.scans.Add(1)
	for s := 0; s < r.NumShards(); s++ {
		for _, t := range r.ShardAddedSince(s, 0) {
			if err := yield(t); err != nil {
				if errors.Is(err, ErrStop) {
					return nil
				}
				return err
			}
		}
	}
	return nil
}

func colsKey(cols []int) string {
	var sb strings.Builder
	for i, c := range cols {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(c))
	}
	return sb.String()
}

// plan fetches a compiled plan from the cache under key, compiling q on a
// miss. EvalCQ/EvalUCQ key by the alpha-renamed canonical form (answers are
// invariant under variable renaming and emission is slot-based); Enumerate
// must key by the literal query instead, because its substitutions expose
// the plan's variable names. A cached plan outlives q, whose strings may be
// substrings of a whole request frame (wire.DecodeRequest), so it is
// compiled from a copy that owns its strings.
func (e *Engine) plan(key string, q lang.CQ) (*Plan, error) {
	if v, ok := e.plans.Get(key); ok {
		return v.(*Plan), nil
	}
	p, err := e.compile(ownStrings(q))
	if err != nil {
		return nil, err
	}
	e.plans.Put(key, p)
	return p, nil
}

// StreamCQ invokes yield once per distinct head tuple of q, in discovery
// order (no sort, no result materialization beyond a dedup set, which a
// head binding every body variable does without), so callers can forward
// rows incrementally — the netpeer server streams eval results over the
// wire through this hook instead of buffering the whole answer. When the
// plan opens with a full scan of a large sharded relation the scan fans out
// across shards, making discovery order unspecified; yields are always
// serialized. Returning ErrStop from yield ends the stream without error.
// The yielded tuple is freshly allocated; callers may keep it.
func (e *Engine) StreamCQ(q lang.CQ, yield func(rel.Tuple) error) error {
	p, err := e.plan(q.Canonical(), q)
	if err != nil {
		return err
	}
	return e.stream(p, yield)
}

// stream is StreamCQ for an already-resolved plan. Every body match is a
// distinct slot assignment, so when the head binds every slot
// (p.headBindsAll) distinct matches are distinct head tuples and no dedup
// set is kept; a projection that drops a variable keeps one.
func (e *Engine) stream(p *Plan, yield func(rel.Tuple) error) error {
	var seen map[string]bool
	if !p.headBindsAll {
		seen = map[string]bool{}
	}
	err := e.run(p, func(slots []string) error {
		head := make(rel.Tuple, len(p.head))
		for i, h := range p.head {
			if h.slot >= 0 {
				head[i] = slots[h.slot]
			} else {
				head[i] = h.constVal
			}
		}
		if seen != nil {
			k := head.Key()
			if seen[k] {
				return nil
			}
			seen[k] = true
		}
		return yield(head)
	})
	if errors.Is(err, ErrStop) {
		return nil
	}
	return err
}

// EvalCQ evaluates a conjunctive query with set semantics and returns the
// distinct head tuples in column-wise (rel.Compare) order — the indexed
// equivalent of rel.EvalCQ.
func (e *Engine) EvalCQ(q lang.CQ) ([]rel.Tuple, error) { return e.EvalCQSpan(q, nil) }

// EvalCQSpan is EvalCQ under an optional trace span: a non-nil span gets a
// "plan" child covering plan fetch/compilation (annotated with the chosen
// step order) and an "exec" child covering the scan/probe run (annotated
// with the distinct-row count).
func (e *Engine) EvalCQSpan(q lang.CQ, sp *obs.Span) ([]rel.Tuple, error) {
	ps := sp.Child("plan")
	p, err := e.plan(q.Canonical(), q)
	ps.SetErr(err)
	if ps != nil && err == nil {
		ps.Set("steps", p.describe())
	}
	ps.End()
	if err != nil {
		return nil, err
	}

	es := sp.Child("exec")
	var out []rel.Tuple
	err = e.stream(p, func(t rel.Tuple) error {
		out = append(out, t)
		return nil
	})
	es.SetErr(err)
	es.SetInt("rows", int64(len(out)))
	es.End()
	if err != nil {
		return nil, err
	}
	slices.SortFunc(out, rel.Compare)
	return out, nil
}

// MaxUnionFanout caps the goroutines EvalUnion runs a union's disjuncts
// on, the caller's among them; the engine and the distributed executor
// share it, so local and remote unions have the same concurrency shape.
const MaxUnionFanout = 8

// EvalUCQ evaluates a union of conjunctive queries, returning the distinct
// union of the disjuncts' answers in column-wise (rel.Compare) order — the
// indexed equivalent of rel.EvalUCQ.
func (e *Engine) EvalUCQ(u lang.UCQ) ([]rel.Tuple, error) { return e.EvalUCQSpan(u, nil) }

// EvalUCQSpan is EvalUCQ under an optional trace span: EvalUnion over the
// engine's EvalCQSpan, so each disjunct's "eval.cq" span holds its
// plan/exec sub-spans.
func (e *Engine) EvalUCQSpan(u lang.UCQ, sp *obs.Span) ([]rel.Tuple, error) {
	return EvalUnion(u, sp, e.EvalCQSpan)
}

// testHookClaimed and testHookFailed, when non-nil, run inside EvalUnion:
// the first once a goroutine has claimed disjunct i and before evaluating
// it, the second right after a failed disjunct stops new claims. Tests set
// them to order claims against a failure deterministically.
var (
	testHookClaimed func(i int)
	testHookFailed  func()
)

// EvalUnion evaluates a union of conjunctive queries through evalCQ and
// returns the distinct union of the disjuncts' answers in column-wise
// (rel.Compare) order. It is the one union loop of every UCQ evaluator:
// sp (nil for an untraced query) gets the "disjuncts" and "rows"
// attributes and one "eval.cq" child per disjunct, which evalCQ receives
// and which carries that disjunct's error. evalCQ must be safe for
// concurrent calls: up to MaxUnionFanout goroutines — the caller's among
// them, so a single disjunct starts none — claim the disjuncts in position
// order. One failed disjunct fails the union: nothing is claimed after it,
// and the error returned is the lowest-position one among the disjuncts
// that ran.
func EvalUnion(u lang.UCQ, sp *obs.Span, evalCQ func(lang.CQ, *obs.Span) ([]rel.Tuple, error)) ([]rel.Tuple, error) {
	if err := u.Validate(); err != nil {
		sp.SetErr(err)
		return nil, err
	}
	n := len(u.Disjuncts)
	sp.SetInt("disjuncts", int64(n))
	groups := make([][]rel.Tuple, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	claim := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if testHookClaimed != nil {
				testHookClaimed(i)
			}
			cs := sp.Child("eval.cq", obs.Attr{K: "head", V: u.Disjuncts[i].Head.Pred})
			groups[i], errs[i] = evalCQ(u.Disjuncts[i], cs)
			cs.SetErr(errs[i])
			cs.End()
			if errs[i] != nil {
				failed.Store(true)
				if testHookFailed != nil {
					testHookFailed()
				}
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(n, MaxUnionFanout); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := rel.DistinctSorted(groups...)
	sp.SetInt("rows", int64(len(out)))
	return out, nil
}

// Enumerate invokes yield once per substitution grounding every atom of
// body in the instance (comparisons in comps are applied as filters once
// bound). Returning ErrStop from yield ends the enumeration without error.
// This is the indexed substrate for callers that need raw matches rather
// than head tuples (the chase's TGD matching).
func (e *Engine) Enumerate(body []lang.Atom, comps []lang.Comparison, yield func(lang.Subst) error) error {
	var head []lang.Term
	for _, a := range body {
		head = a.Vars(head)
	}
	q := lang.CQ{Head: lang.Atom{Pred: "_enum", Args: head}, Body: body, Comps: comps}
	// Literal key, NOT Canonical(): two alpha-equivalent bodies with
	// different variable names must not share a plan here, since the
	// yielded substitutions carry the plan's variable names.
	p, err := e.plan("enum|"+q.String(), q)
	if err != nil {
		return err
	}
	err = e.run(p, func(slots []string) error {
		s := lang.NewSubst()
		for i, name := range p.slotNames {
			s[name] = lang.Const(slots[i])
		}
		return yield(s)
	})
	if errors.Is(err, ErrStop) {
		return nil
	}
	return err
}

// ExistsMatch reports whether at least one substitution grounds every atom
// in the instance. Unlike Enumerate it never caches the plan: its intended
// callers (the chase's head-satisfaction test) embed per-match constants,
// so each query is one-shot and caching would only churn the plan LRU.
func (e *Engine) ExistsMatch(atoms []lang.Atom) (bool, error) {
	var head []lang.Term
	for _, a := range atoms {
		head = a.Vars(head)
	}
	q := lang.CQ{Head: lang.Atom{Pred: "_exists", Args: head}, Body: atoms}
	p, err := e.compile(q)
	if err != nil {
		return false, err
	}
	found := false
	err = e.run(p, func([]string) error {
		found = true
		return ErrStop
	})
	if err != nil && !errors.Is(err, ErrStop) {
		return false, err
	}
	return found, nil
}
