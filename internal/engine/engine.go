package engine

import (
	"errors"
	"fmt"
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

// index is a hash index over one relation for one bound-position set: the
// key projects a row onto cols and each bucket holds the matching rows'
// locations. Indexes are built lazily on first probe and maintained
// incrementally from the relation's rows past the last catch-up.
type index struct {
	cols []int
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
	data *rel.Instance
	// plans caches compiled plans keyed by canonicalized query, one cost
	// unit each.
	plans *LRU[*Plan]

	// mu guards the two-level index map. Probes take the read lock only to
	// locate the *index for their (relation, column-set); all bucket state
	// is then guarded by the index's own lock.
	mu      sync.RWMutex
	indexes map[string]map[string]*index // pred -> column-set key -> index; guarded by mu

	// probes counts the index lookups made: a plan step entered with the
	// key of its last lookup in the same run reuses that lookup's rows and
	// is not counted, nor is a repeated key of one ProbeByKeyBatchYield
	// call. scans counts full-scan step entries.
	probes, scans obs.Counter
	// plansCompiled counts plan compilations.
	plansCompiled obs.Counter
	// indexesBuilt counts distinct (relation, column-set) indexes created.
	indexesBuilt obs.Counter
}

// New returns an engine over ins.
func New(ins *rel.Instance) *Engine {
	return &Engine{data: ins, plans: NewLRU[*Plan](1024), indexes: map[string]map[string]*index{}}
}

// getIndex returns (creating if needed) the index of r for the
// bound-position set cols, whose colsKey is ck.
func (e *Engine) getIndex(r *rel.Relation, cols []int, ck string) *index {
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
		idx = &index{cols: cols, width: slices.Max(cols) + 1}
		byCols[ck] = idx
		e.indexesBuilt.Add(1)
	}
	return idx
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
	idx := e.getIndex(r, cols, colsKey(cols))
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

// colsKey names the bound-position set cols in an engine's index map.
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
// substrings of a whole request frame (wire.ReadRequest), so it is
// compiled from a copy that owns its strings.
func (e *Engine) plan(key string, q lang.CQ) (*Plan, error) {
	if p, ok := e.plans.Get(key); ok {
		return p, nil
	}
	p, err := e.compile(ownStrings(q))
	if err != nil {
		return nil, err
	}
	e.plans.Put(key, p, 1)
	return p, nil
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
	p, err := e.plan(q.Canonical(), q)
	if err != nil {
		return err
	}
	return e.stream(p, yield)
}

// stream is StreamCQ for an already-resolved plan. Every body match is a
// distinct slot assignment, so when the head binds every slot
// (p.headBindsAll) distinct matches are distinct head tuples and no dedup
// set is kept; a projection that drops a variable keeps one. Every head
// tuple is yielded through one reused view.
func (e *Engine) stream(p *Plan, yield func(rel.Tuple) error) error {
	var seen map[string]bool
	if !p.headBindsAll {
		seen = map[string]bool{}
	}
	head := make(rel.Tuple, len(p.head))
	err := e.run(p, func(slots []string) error {
		p.project(head, slots)
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
	sc := answerPool.Get().(*answerScratch)
	err = e.stream(p, func(t rel.Tuple) error {
		sc.vals = append(sc.vals, t...)
		sc.n++
		return nil
	})
	n := sc.n
	es.SetErr(err)
	es.SetInt("rows", int64(n))
	es.End()
	if err != nil || n == 0 {
		sc.release()
		return nil, err
	}
	// One exact-size copy, so the answers keep no slack.
	vals := make([]string, len(sc.vals))
	copy(vals, sc.vals)
	sc.release()
	out := make([]rel.Tuple, n)
	a := len(p.head)
	for i := range out {
		out[i] = vals[i*a : (i+1)*a : (i+1)*a]
	}
	rel.SortTuples(out)
	return out, nil
}

// answerScratch is where EvalCQSpan collects a disjunct's head values, back
// to back, before its one exact-size copy: n head tuples in vals. Idle
// scratch waits in answerPool, so a warm disjunct collects without growing
// a buffer.
type answerScratch struct {
	vals []string
	n    int
}

// maxPooledVals caps the values an idle answerScratch keeps capacity for,
// so one huge answer does not stay pinned between calls.
const maxPooledVals = 1 << 14

var answerPool = sync.Pool{New: func() any { return new(answerScratch) }}

// release clears sc, so that idle scratch pins no rows, and returns it to
// answerPool unless it has grown past maxPooledVals.
func (sc *answerScratch) release() {
	if cap(sc.vals) > maxPooledVals {
		return
	}
	clear(sc.vals)
	sc.vals, sc.n = sc.vals[:0], 0
	answerPool.Put(sc)
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
// engine's EvalCQSpan, so each disjunct's "eval.cq" span holds its
// plan/exec sub-spans. The disjuncts are CPU-bound and short, so they run
// one after another on the calling goroutine: the union starts no
// goroutine.
func (e *Engine) EvalUCQSpan(u lang.UCQ, sp *obs.Span) ([]rel.Tuple, error) {
	return EvalUnion(u, sp, 1, e.EvalCQSpan)
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
	for w := 1; w < min(n, width); w++ {
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
	out := rel.MergeDistinct(groups...)
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
