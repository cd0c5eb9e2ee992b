package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rel"
)

// ErrStop is returned by a yield callback of StreamCQ, StreamScan or
// ProbeByKeyBatchYield to end the stream early without error.
var ErrStop = errors.New("engine: stop enumeration")

// index is a hash index over one relation for one bound-position set: the
// key projects a row onto cols and each bucket holds the matching rows'
// locations. Indexes are built lazily on first probe and maintained
// incrementally from the relation's rows past the last catch-up.
type index struct {
	cols []int // the index's own copy
	// width is the number of leading columns a row decodes to reach every
	// column of cols.
	width int
	// mu's read lock covers the fast path (index already caught up with
	// the relation), so concurrent probes proceed in parallel and take no
	// relation lock; the write lock is only taken to fold in new rows.
	mu sync.RWMutex
	// consumed is how many rows the index has folded in, guarded by mu.
	consumed uint64
	// rows is the relation snapshot of the last build or catch-up, guarded
	// by mu: every bucket's locations lie in its chunks.
	rows rel.Rows
	// keys maps each probe key (appendProbeKey) to its bucket's number,
	// guarded by mu. Every key is a string of its own, so no key pins an
	// arena the relation has left.
	keys map[string]uint32
	// buckets holds each bucket's row locations, by number, guarded by mu.
	// A build makes every bucket a capped sub-slice of one allocation.
	buckets [][]rel.Loc
}

// appendKey appends the probe key (appendProbeKey) of the row decoded into
// vals to dst.
func (idx *index) appendKey(dst []byte, vals []string) []byte {
	return appendColsKey(dst, vals, idx.cols)
}

// appendColsKey appends the probe key (appendProbeKey) of vals' values at
// cols to dst.
func appendColsKey(dst []byte, vals []string, cols []int) []byte {
	if len(cols) == 1 {
		return append(dst, vals[cols[0]]...)
	}
	for _, c := range cols {
		dst = rel.AppendValue(dst, vals[c])
	}
	return dst
}

// bucketLocked returns the locations of the rows whose probe key is k.
// Callers hold idx.mu.
func (idx *index) bucketLocked(k []byte) []rel.Loc {
	if g, ok := idx.keys[string(k)]; ok {
		return idx.buckets[g]
	}
	return nil
}

// refreshLocked brings the index up to date with r: an index that has
// folded in no row yet is built, and the rows past it are then folded in.
// A build of a non-empty relation leaves it laid out, and a relation is
// laid out once, so the rows an index holds never lie on a superseded
// layout. vals is scratch of at least idx.width values. Callers hold
// idx.mu.
func (idx *index) refreshLocked(r *rel.Relation, vals []string) {
	rows := r.Rows()
	if idx.consumed == 0 {
		rows = idx.buildLocked(r, rows, vals)
	}
	idx.catchUpLocked(rows, vals)
}

// buildLocked fills the index from rows, a snapshot of r, and returns the
// snapshot its buckets lie in. One decode of each row, in walk order, gives
// the row's bucket: its key's, numbered by first appearance. The rows'
// locations are then placed bucket after bucket in one []rel.Loc, each
// bucket a capped sub-slice of it, so an append to a bucket reallocates it
// instead of overwriting its neighbour. Over a relation not yet laid out,
// that placement is the relation's layout (rel.Relation.LayOut): the build
// lays the arena out by this index's key, and the buckets are the layout
// itself. Callers hold idx.mu.
func (idx *index) buildLocked(r *rel.Relation, rows rel.Rows, vals []string) rel.Rows {
	vals = vals[:idx.width]
	n := rows.Len()
	group := make([]uint32, n)
	idx.keys = map[string]uint32{}
	var counts []int
	var kb []byte
	i := 0
	for l := range rows.All() {
		rel.SplitRow(rows.Key(l), vals)
		kb = idx.appendKey(kb[:0], vals)
		g, ok := idx.keys[string(kb)]
		if !ok {
			g = uint32(len(counts))
			idx.keys[string(kb)] = g
			counts = append(counts, 0)
		}
		group[i] = g
		counts[g]++
		i++
	}
	var locs []rel.Loc
	if rows.LaidOut() || n == 0 {
		locs = make([]rel.Loc, n)
		next := make([]int, len(counts))
		for g := 1; g < len(counts); g++ {
			next[g] = next[g-1] + counts[g-1]
		}
		i = 0
		for l := range rows.All() {
			locs[next[group[i]]] = l
			next[group[i]]++
			i++
		}
	} else {
		var ok bool
		if rows, ok = r.LayOut(rows, group, counts); !ok {
			// Another index laid r out since rows was taken.
			return idx.buildLocked(r, r.Rows(), vals)
		}
		locs, _ = rows.Walk()
	}
	idx.buckets = make([][]rel.Loc, len(counts))
	start := 0
	for g, c := range counts {
		idx.buckets[g] = locs[start : start+c : start+c]
		start += c
	}
	idx.rows, idx.consumed = rows, uint64(n)
	return rows
}

// catchUpLocked folds rows past idx.consumed, in id order, into the
// buckets. vals is scratch of at least idx.width values. Callers hold
// idx.mu.
func (idx *index) catchUpLocked(rows rel.Rows, vals []string) {
	vals = vals[:idx.width]
	var kb []byte
	for _, l := range rows.Since(int(idx.consumed)) {
		rel.SplitRow(rows.Key(l), vals)
		kb = idx.appendKey(kb[:0], vals)
		g, ok := idx.keys[string(kb)]
		if !ok {
			g = uint32(len(idx.buckets))
			idx.keys[string(kb)] = g
			idx.buckets = append(idx.buckets, nil)
		}
		idx.buckets[g] = append(idx.buckets[g], l)
	}
	idx.consumed = uint64(rows.Len())
	idx.rows = rows
}

// appendProbeKey assembles the probe key for vals (one value per probed
// column) into dst, in the encoding the index buckets use: one value is its
// own key, and several are their rel.AppendValue encodings one after
// another.
func appendProbeKey(dst []byte, vals []string) []byte {
	if len(vals) == 1 {
		return append(dst, vals[0]...)
	}
	for _, v := range vals {
		dst = rel.AppendValue(dst, v)
	}
	return dst
}

// Engine evaluates conjunctive queries and unions of conjunctive queries
// over a rel.Instance using lazily-built hash indexes and
// cardinality join ordering (compile). It is the indexed replacement for
// the naive evaluator in package rel (which remains the reference oracle).
//
// Concurrency: concurrent evaluations are safe with each other, and the
// underlying relations tolerate concurrent inserts (each relation
// self-synchronizes); callers that need one atomic point-in-time answer
// across mutations still serialize them externally (pdms.Network,
// netpeer.Server). Indexes catch up with inserts on the next probe.
type Engine struct {
	data  *rel.Instance
	plans *PlanCache

	// mu guards the index map. Probes take the read lock only to locate
	// the *index for their (relation, column list); all bucket state is
	// then guarded by the index's own lock.
	mu      sync.RWMutex
	indexes map[string][]*index // pred -> its indexes, one per column list; guarded by mu

	// probes counts the index lookups made: a plan step entered with the
	// key of its last lookup in the same run reuses that lookup's rows and
	// is not counted, nor is a repeated key of one ProbeByKeyBatchYield
	// call. scans counts full-scan step entries.
	probes, scans obs.Counter
	// indexesBuilt counts distinct (relation, column-set) indexes created.
	indexesBuilt obs.Counter
}

// New returns an engine over ins.
func New(ins *rel.Instance) *Engine {
	return &Engine{data: ins, plans: NewPlanCache(), indexes: map[string][]*index{}}
}

// getIndex returns (creating if needed) the index of r for the column list
// cols. A relation has few indexes, so its list is scanned.
func (e *Engine) getIndex(r *rel.Relation, cols []int) *index {
	e.mu.RLock()
	idx := findIndex(e.indexes[r.Name()], cols)
	e.mu.RUnlock()
	if idx != nil {
		return idx
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	idxs := e.indexes[r.Name()]
	if idx = findIndex(idxs, cols); idx == nil {
		idx = &index{cols: slices.Clone(cols), width: slices.Max(cols) + 1}
		e.indexes[r.Name()] = append(idxs, idx)
		e.indexesBuilt.Add(1)
	}
	return idx
}

// findIndex returns the index of idxs over the column list cols, or nil.
func findIndex(idxs []*index, cols []int) *index {
	for _, idx := range idxs {
		if slices.Equal(idx.cols, cols) {
			return idx
		}
	}
	return nil
}

// probe returns the locations of r's rows whose projection onto idx.cols
// has the probe key k (appendProbeKey), and the snapshot they lie in: it
// refreshes the index if r has grown since, then looks the key up. The
// returned bucket is shared with the index and must not be mutated: it is
// a capped sub-slice or a prefix of one that later rows only extend, so it
// stays valid as the index catches up. vals is scratch of r's arity.
func (idx *index) probe(r *rel.Relation, k []byte, vals []string) (rel.Rows, []rel.Loc) {
	idx.mu.RLock()
	if idx.consumed == r.Version() {
		rows, b := idx.rows, idx.bucketLocked(k)
		idx.mu.RUnlock()
		return rows, b
	}
	idx.mu.RUnlock()
	idx.mu.Lock()
	idx.refreshLocked(r, vals)
	rows, b := idx.rows, idx.bucketLocked(k)
	idx.mu.Unlock()
	return rows, b
}

// ProbeByKeyBatchYield invokes yield once per distinct tuple of pred whose
// projection onto cols equals one of keys, building (or incrementally
// catching up) the same lazy hash indexes that regular probe steps use.
// Every key must supply len(cols) values. Tuples stream out as the keys are
// probed — nothing beyond the set of keys seen is materialized — which is
// the server-side substrate for netpeer's chunked bind responses. The
// index is looked up once per call, and the keys are probed through it one
// after another, in order. The yielded tuple is a view that is
// valid only during the call: a caller that keeps it must copy it.
// Returning ErrStop from yield ends the stream without error.
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
	if len(keys) == 0 {
		return nil
	}
	idx := e.getIndex(r, cols)
	// A row has one projection onto cols, so distinct keys match disjoint
	// rows: skipping repeated keys is what keeps the tuples distinct.
	var seen map[string]struct{}
	if len(keys) > 1 {
		seen = make(map[string]struct{}, len(keys))
	}
	var kb []byte
	view := make(rel.Tuple, r.Arity())
	for _, key := range keys {
		kb = appendProbeKey(kb[:0], key)
		if seen != nil {
			if _, ok := seen[string(kb)]; ok {
				continue
			}
			seen[string(kb)] = struct{}{}
		}
		e.probes.Add(1)
		rows, locs := idx.probe(r, kb, view)
		for _, l := range locs {
			rel.SplitRow(rows.Key(l), view)
			if err := yield(view); err != nil {
				if errors.Is(err, ErrStop) {
					return nil
				}
				return err
			}
		}
	}
	return nil
}

// ProbeByKeyBatch is ProbeByKeyBatchYield materialized: it returns the
// distinct matching tuples as a slice, in the order they were yielded. The
// caller owns the result.
func (e *Engine) ProbeByKeyBatch(pred string, cols []int, keys [][]string) ([]rel.Tuple, error) {
	var out []rel.Tuple
	var vals []string // the unused tail of the current block of values
	err := e.ProbeByKeyBatchYield(pred, cols, keys, func(t rel.Tuple) error {
		if len(vals) < len(t) {
			vals = make([]string, 256*len(t))
		}
		c := rel.Tuple(vals[:len(t):len(t)])
		copy(c, t)
		vals = vals[len(t):]
		out = append(out, c)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// StreamScan invokes yield once per tuple of pred, in the relation's walk
// order (rel.Rows.All; no sort, no materialization — the relation's rows
// are already distinct): once the relation's first index has laid it out,
// that index's groups one after another, each in insertion order, then the
// rows inserted since in insertion order; before, insertion order. It is
// the streaming substrate for the netpeer server's "scan" op. The yielded
// tuple is a view that is valid only during the call: a caller that keeps
// it must copy it. Returning ErrStop from yield ends the stream without
// error. An absent relation yields nothing.
func (e *Engine) StreamScan(pred string, yield func(rel.Tuple) error) error {
	r := e.data.Relation(pred)
	if r == nil {
		return nil
	}
	e.scans.Add(1)
	rows := r.Rows()
	view := make(rel.Tuple, r.Arity())
	for l := range rows.All() {
		rel.SplitRow(rows.Key(l), view)
		if err := yield(view); err != nil {
			if errors.Is(err, ErrStop) {
				return nil
			}
			return err
		}
	}
	return nil
}

// PlanCache caches compiled plans by query shape: the query's canonical
// form with its atom constants as parameters (lang.CQ.AppendCanonical), so
// queries that differ only in variable names and atom constants share one
// plan. It serves both joins: an Engine's runs over its instance, and the
// netpeer executor's BindJoin over fetched rows. Safe for concurrent use.
type PlanCache struct {
	lru      *LRU[*Plan]
	compiles obs.Counter // misses, drifted entries and uncached plans
}

// NewPlanCache returns an empty plan cache of 1,024 plans.
func NewPlanCache() *PlanCache {
	return &PlanCache{lru: NewLRU[*Plan](1024)}
}

// Compiles returns the counter of the plans c has compiled.
func (c *PlanCache) Compiles() *obs.Counter { return &c.compiles }

// Plan returns q's plan for sizes, one size per body position: the cached
// plan of q's shape unless a step's size has drifted past driftFactor from
// the one it was ordered by, else a plan newly compiled in the order sizes
// give, which replaces it. A comparison on a variable the body never binds
// fails the run with an error that names the variable, so its plan is
// returned uncached.
func (c *PlanCache) Plan(q lang.CQ, sizes []int) (*Plan, error) {
	var arr [128]byte
	key := q.AppendCanonical(arr[:0], true)
	if p, ok := c.lru.Get(string(key)); ok && !p.drifted(sizes) {
		return p, nil
	}
	c.compiles.Add(1)
	p, err := compile(q, sizes)
	if err != nil {
		return nil, err
	}
	if len(p.lateComps) == 0 {
		c.lru.Put(string(key), p, 1)
	}
	return p, nil
}

// shortBody is the longest body whose relations and sizes an evaluation
// keeps in arrays on its stack; a longer one spills to the heap.
const shortBody = 8

// plan appends the relation of each atom of q's body to rels (nil for an
// absent one, of size 0), checking its arity first, and returns q's plan
// for the relations' current sizes.
func (e *Engine) plan(q lang.CQ, rels []*rel.Relation) (*Plan, []*rel.Relation, error) {
	var sizeArr [shortBody]int
	sizes := sizeArr[:0]
	for _, a := range q.Body {
		r, n := e.data.Relation(a.Pred), 0
		if r != nil {
			if r.Arity() != a.Arity() {
				return nil, nil, fmt.Errorf("engine: atom %s arity %d, relation has %d", a, a.Arity(), r.Arity())
			}
			n = r.Len()
		}
		rels, sizes = append(rels, r), append(sizes, n)
	}
	p, err := e.plans.Plan(q, sizes)
	return p, rels, err
}

// StreamCQ invokes yield once per distinct head tuple of q, in discovery
// order (no sort, no result materialization beyond a dedup set, which a
// head binding every body variable does without), so callers can forward
// rows incrementally — the netpeer server streams eval results over the
// wire through this hook instead of buffering the whole answer. Returning
// ErrStop from yield ends the stream without error. The yielded tuple is
// one reused view that is valid only during the call, as StreamScan's and
// ProbeByKeyBatchYield's are: a caller that keeps it must copy it.
func (e *Engine) StreamCQ(q lang.CQ, yield func(rel.Tuple) error) error {
	var relArr [shortBody]*rel.Relation
	p, rels, err := e.plan(q, relArr[:0])
	if err == nil {
		_, err = e.run(p, rels, q, yield)
	}
	if errors.Is(err, ErrStop) {
		return nil
	}
	return err
}

// EvalCQ evaluates a conjunctive query with set semantics and returns the
// distinct head tuples in column-wise (rel.Compare) order — the indexed
// equivalent of rel.EvalCQ.
func (e *Engine) EvalCQ(q lang.CQ) ([]rel.Tuple, error) { return e.evalCQ(q, nil) }

// evalCQ is EvalCQ under an optional trace span: a non-nil span gets a
// "plan" child covering plan fetch/compilation (annotated with the chosen
// step order) and an "exec" child covering the scan/probe run (annotated
// with the distinct-row count).
func (e *Engine) evalCQ(q lang.CQ, sp *obs.Span) ([]rel.Tuple, error) {
	var relArr [shortBody]*rel.Relation
	ps := sp.Child("plan")
	p, rels, err := e.plan(q, relArr[:0])
	ps.SetErr(err)
	if ps != nil && err == nil {
		ps.Set("steps", p.describe())
	}
	ps.End()
	if err != nil {
		return nil, err
	}

	es := sp.Child("exec")
	out, err := e.run(p, rels, q, nil)
	es.SetErr(err)
	es.SetInt("rows", int64(len(out)))
	es.End()
	if err != nil {
		return nil, err
	}
	rel.SortTuples(out)
	return out, nil
}

// MaxUnionFanout is the number of goroutines, the caller's among them, the
// distributed executor runs a union's disjuncts on. Each of its disjuncts
// waits on round trips to peers, so running several at once overlaps them.
// The engine's own disjuncts are index probes and small joins that take
// microseconds, less than handing one to another goroutine costs, so
// Engine.EvalUCQSpan runs them on the caller's goroutine.
const MaxUnionFanout = 8

// EvalUCQ evaluates a union of conjunctive queries, returning the distinct
// union of the disjuncts' answers in column-wise (rel.Compare) order — the
// indexed equivalent of rel.EvalUCQ.
func (e *Engine) EvalUCQ(u lang.UCQ) ([]rel.Tuple, error) { return e.EvalUCQSpan(u, nil) }

// EvalUCQSpan is EvalUCQ under an optional trace span: EvalUnion over the
// engine's evalCQ, so each disjunct's "eval.cq" span holds its
// plan/exec sub-spans. The disjuncts are CPU-bound and short, so they run
// one after another on the calling goroutine: the union starts no
// goroutine.
func (e *Engine) EvalUCQSpan(u lang.UCQ, sp *obs.Span) ([]rel.Tuple, error) {
	return EvalUnion(u, sp, 1, e.evalCQ)
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
// (rel.Compare) order. evalCQ must return distinct tuples in rel.Compare
// order: EvalUnion merges the disjuncts' answers with rel.MergeDistinct
// rather than re-sorting them. It is the one union loop of every UCQ
// evaluator:
// sp (nil for an untraced query) gets the "disjuncts" and "rows"
// attributes and one "eval.cq" child per disjunct, which evalCQ receives
// and which carries that disjunct's error. Up to width goroutines — the
// caller's among them, so a width of 1 or a single disjunct starts none —
// claim the disjuncts in position order; with a width above 1, evalCQ must
// be safe for concurrent calls. One failed disjunct fails the union:
// nothing is claimed after it, and the error returned is the
// lowest-position one among the disjuncts that ran.
func EvalUnion(u lang.UCQ, sp *obs.Span, width int, evalCQ func(lang.CQ, *obs.Span) ([]rel.Tuple, error)) ([]rel.Tuple, error) {
	if err := u.Validate(); err != nil {
		sp.SetErr(err)
		return nil, err
	}
	n := len(u.Disjuncts)
	sp.SetInt("disjuncts", int64(n))
	un := new(union)
	// Each extends the struct's own array, reallocating past its length.
	un.groups = append(un.groupArr[:0], make([][]rel.Tuple, n)...)
	un.errs = append(un.errArr[:0], make([]error, n)...)
	for w := 1; w < min(n, width); w++ {
		un.wg.Add(1)
		go func() {
			defer un.wg.Done()
			un.claim(u, sp, evalCQ)
		}()
	}
	un.claim(u, sp, evalCQ)
	un.wg.Wait()
	for _, err := range un.errs {
		if err != nil {
			return nil, err
		}
	}
	out := rel.MergeDistinct(un.groups...)
	sp.SetInt("rows", int64(len(out)))
	return out, nil
}

// union is the bookkeeping of one EvalUnion call, in one allocation: each
// disjunct's rows and error (held in the struct itself for a union of up to
// 8 disjuncts), the number of disjuncts claimed, and whether one has failed.
type union struct {
	groups   [][]rel.Tuple
	errs     []error
	groupArr [8][]rel.Tuple
	errArr   [8]error
	next     atomic.Int64
	failed   atomic.Bool
	wg       sync.WaitGroup
}

// claim evaluates u's disjuncts through evalCQ in position order, one claim
// at a time, until every disjunct is claimed or one has failed.
func (un *union) claim(u lang.UCQ, sp *obs.Span, evalCQ func(lang.CQ, *obs.Span) ([]rel.Tuple, error)) {
	for !un.failed.Load() {
		i := int(un.next.Add(1)) - 1
		if i >= len(un.groups) {
			return
		}
		if testHookClaimed != nil {
			testHookClaimed(i)
		}
		var cs *obs.Span // built only under a trace: Child's attributes escape
		if sp != nil {
			cs = sp.Child("eval.cq", obs.Attr{K: "head", V: u.Disjuncts[i].Head.Pred})
		}
		un.groups[i], un.errs[i] = evalCQ(u.Disjuncts[i], cs)
		cs.SetErr(un.errs[i])
		cs.End()
		if un.errs[i] != nil {
			un.failed.Store(true)
			if testHookFailed != nil {
				testHookFailed()
			}
		}
	}
}

// ExistsMatch reports whether at least one substitution grounds every atom
// in the instance. Its intended callers (the chase's head-satisfaction
// test) embed per-match constants, which are parameters of the plan's key:
// one plan serves every match of a body.
func (e *Engine) ExistsMatch(atoms []lang.Atom) (bool, error) {
	found := false
	err := e.StreamCQ(lang.CQ{Head: lang.Atom{Pred: "_exists"}, Body: atoms}, func(rel.Tuple) error {
		found = true
		return ErrStop
	})
	return found, err
}
