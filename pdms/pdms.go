// Package pdms is the public API of the peer data management system: build
// a network of peers, schemas, semantic mappings and stored data — either
// programmatically or from the textual PPL format — then pose conjunctive
// queries at any peer, reformulate them onto stored relations (Halevy, Ives,
// Suciu, Tatarinov: "Schema Mediation in Peer Data Management Systems",
// ICDE 2003), and execute them.
//
// Quick start:
//
//	net, err := pdms.Load(`
//	    storage FH.doc(s, l) in FH:Doctor(s, l)
//	    define H:Doctor(s, l) :- FH:Doctor(s, l)
//	    fact FH.doc("d1", "er")
//	`)
//	ans, err := net.Query(`q(s) :- H:Doctor(s, l)`)
//
// A network caches reformulations until its specification changes, and
// answers until a relation they read changes. Where no mapping or storage
// description the query can reach mentions a constant or a comparison, and
// the query has no comparison, its constants cannot change the rewriting
// beyond appearing in it: the reformulation is cached per query shape, with
// the constants left out of the key, and each query of the shape gets the
// cached rewriting with its own constants substituted.
package pdms

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/ppl"
	"repro/internal/rel"
	"repro/internal/store"
)

// answerCacheSize and reformCacheSize bound the per-network LRU caches;
// traceRingSize bounds the tracer's buffer of recent query traces.
const (
	answerCacheSize = 512
	reformCacheSize = 256
	traceRingSize   = 64
)

// Network is a PDMS instance: the specification plus stored data.
// Construct with New or Load. Queries, reformulations and mutations
// (Extend, AddFact) may be issued concurrently; mutations take a write
// lock, reads share a read lock.
//
// Queries execute through an indexed engine (internal/engine) and their
// answers are cached in an LRU keyed by the canonicalized query, the spec
// generation, and the *generation vector* of exactly the stored relations
// the query's rewriting touches (each relation's rel.Instance.Gen insert
// counter). An AddFact on relation R therefore invalidates only cached
// answers whose rewriting mentions R — answers for disjoint queries keep
// hitting across the mutation — while Extend (which can change every
// rewriting) bumps the spec generation and so invalidates everything.
// Cached results are shared — callers must not mutate returned answer
// slices.
type Network struct {
	mu   sync.RWMutex
	spec *ppl.PDMS     // guarded by mu (Extend swaps it; queries read it)
	data *rel.Instance // guarded by mu (all mutation goes through AddFact)
	eng  *engine.Engine
	// specGen counts spec mutations (Extend); it keys the reformulation
	// cache and is one component of every answer-cache key. Data mutations
	// never bump it (AddFact cannot change reformulations) — they advance
	// the mutated relation's own insert counter instead, which answer keys
	// embed per relation. Stale keys simply never match and age out of the
	// LRUs. Guarded by mu.
	specGen uint64
	// invalidations counts generation-bumping mutation events: AddFact
	// calls that inserted a new tuple, plus every Extend. Each one changed
	// the keys of the cached answers touching the mutated relation(s);
	// duplicate inserts bump nothing and leave the cache warm.
	invalidations obs.Counter
	// answers and reforms are count-bounded: every entry costs 1.
	answers *engine.LRU[[]Answer]
	reforms *engine.LRU[*reformEntry]
	// reformer is the spec generation's core.Reformulator, shared by every
	// query: each asks it whether the query's constants may leave the
	// reformulation-cache key, and every miss reformulates on it. The first
	// query after construction or Extend builds it (normalizing the whole
	// specification), Extend drops it. Holders also hold mu, so the spec it
	// was built from cannot move under them.
	reformMu sync.Mutex
	reformer *core.Reformulator // guarded by reformMu
	// catalogBuilds counts reformer builds, nodesExpanded the rule-goal tree
	// nodes of every computed reformulation, reformHist times them.
	catalogBuilds obs.Counter
	nodesExpanded obs.Counter
	reformHist    *obs.Histogram
	// tracer samples Query/QueryVia traces (off until its sampling knob is
	// set); queryHist times every query regardless of sampling.
	tracer    *obs.Tracer
	queryHist *obs.Histogram
	// dstore is the durable segment journal (nil for in-memory networks).
	// Set once during construction, before the network is shared; writes
	// flow through the instance's append hooks, so no extra locking here.
	dstore *store.Dir
}

func newNetwork(spec *ppl.PDMS, data *rel.Instance) *Network {
	return &Network{
		spec:       spec,
		data:       data,
		eng:        engine.New(data),
		answers:    engine.NewLRU[[]Answer](answerCacheSize),
		reforms:    engine.NewLRU[*reformEntry](reformCacheSize),
		tracer:     obs.NewTracer(traceRingSize),
		queryHist:  obs.NewHistogram(),
		reformHist: obs.NewHistogram(),
	}
}

// Options holds a network's deployment settings: where, if anywhere, its
// stored relations are journaled. Reformulation has no settings — every
// network runs the full Section 4.3 algorithm and extracts every rewriting.
type Options struct {
	// DataDir makes stored relations durable: inserts are journaled to
	// append-only segment files under this directory (internal/store) and
	// construction replays existing segments into a bit-identical instance
	// before applying anything else. Durable networks must be built with
	// Open, Load or LoadWithOptions (New panics — it cannot report replay
	// errors) and closed with Close so buffered frames reach disk. Empty
	// keeps the network purely in memory.
	DataDir string
}

// New returns an empty network with the given options. New cannot report
// segment-replay errors, so it panics when opts.DataDir is set — durable
// networks are built with Open (or Load/LoadWithOptions).
func New(opts Options) *Network {
	if opts.DataDir != "" {
		panic("pdms: use Open for durable networks (New cannot report replay errors)")
	}
	return newNetwork(ppl.New(), rel.NewInstance())
}

// Open returns an empty-spec network whose stored relations are durable
// under opts.DataDir: existing segments are replayed into the instance and
// every later insert is journaled. The spec itself is not persisted —
// callers re-apply it (Extend) after Open; only re-added *facts* are
// deduplicated against the recovered data.
func Open(opts Options) (*Network, error) {
	if opts.DataDir == "" {
		return nil, fmt.Errorf("pdms: Open requires Options.DataDir")
	}
	data, dstore, _, err := store.OpenInstance(opts.DataDir, nil)
	if err != nil {
		return nil, fmt.Errorf("pdms: %w", err)
	}
	n := newNetwork(ppl.New(), data)
	n.dstore = dstore
	return n, nil
}

// Load parses a PPL specification (schema declarations, mappings, storage
// descriptions and facts) into a fresh network with default options.
func Load(src string) (*Network, error) {
	return LoadWithOptions(src, Options{})
}

// LoadWithOptions is Load with explicit options. With Options.DataDir set,
// the on-disk segments are replayed first and the specification's facts are
// merged (and journaled) on top — loading the same spec over the same
// directory is idempotent for its facts. A replayed row that violates a
// comparison of the specification's storage descriptions fails the load.
func LoadWithOptions(src string, opts Options) (*Network, error) {
	res, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	data := res.Data
	var dstore *store.Dir
	if opts.DataDir != "" {
		data, dstore, _, err = store.OpenInstance(opts.DataDir, data)
		if err != nil {
			return nil, fmt.Errorf("pdms: %w", err)
		}
		// Parse checked the spec's facts; the replayed rows were written
		// under whatever spec the directory had before.
		if err := res.PDMS.CheckStored(data); err != nil {
			return nil, errors.Join(err, dstore.Close())
		}
	}
	n := newNetwork(res.PDMS, data)
	n.dstore = dstore
	return n, nil
}

// Close flushes and fsyncs the durable journal (a no-op for in-memory
// networks). The network must not be mutated afterwards.
func (n *Network) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dstore == nil {
		return nil
	}
	return n.dstore.Close()
}

// Extend parses additional PPL statements into an existing network — the
// paper's ad hoc extensibility: new peers, mappings and data can join at
// any time (Example 1.1's Earthquake Command Center scenario). A fact that
// contradicts a storage description's comparisons, in the extension or
// already in the network, rejects the whole extension.
func (n *Network) Extend(src string) error {
	res, err := parser.Parse(src)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	// Reject a row that would contradict the extended specification before
	// merging anything. Parse checked the extension's facts against its own
	// storage descriptions; what is left is those facts against this
	// network's descriptions, and this network's rows against the new ones.
	for _, pred := range res.Data.Relations() {
		for _, t := range res.Data.Relation(pred).Tuples() {
			if err := n.spec.CheckFact(pred, t); err != nil {
				return err
			}
		}
	}
	if err := res.PDMS.CheckStored(n.data); err != nil {
		return err
	}
	// Invalidate caches even when the merge fails partway: declarations or
	// mappings may already have been applied, and serving pre-Extend cached
	// answers against a partially-extended spec would be stale. Bumping the
	// spec generation invalidates every answer key, not just the touched
	// relations' — a new mapping can change which relations a rewriting
	// mentions.
	defer func() {
		n.specGen++
		n.invalidations.Inc()
		n.reformMu.Lock()
		n.reformer = nil
		n.reformMu.Unlock()
	}()
	// Merge declarations, mappings, storage and data.
	for _, name := range res.PDMS.RelationNames() {
		if err := n.spec.DeclareRelation(*res.PDMS.Relation(name)); err != nil {
			return err
		}
	}
	for _, m := range res.PDMS.Mappings() {
		m.ID = "" // re-assign in this network's ID space
		if err := n.spec.AddMapping(m); err != nil {
			return err
		}
	}
	for _, s := range res.PDMS.Storages() {
		s.ID = ""
		if err := n.spec.AddStorage(s); err != nil {
			return err
		}
	}
	for _, pred := range res.Data.Relations() {
		for _, t := range res.Data.Relation(pred).Tuples() {
			if _, err := n.data.Add(pred, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// Spec exposes the underlying PPL specification (read-only use intended).
//
//lint:ignore lockcheck deliberate read-only escape hatch: the pointer is swapped atomically-enough under Extend's lock and callers are documented not to mutate through it
func (n *Network) Spec() *ppl.PDMS { return n.spec }

// Data exposes the stored-relation instance. Read-only: mutating it
// directly bypasses the Network's lock (and the per-relation insert
// counters that answer-cache keys are built from are only read safely
// under it), so cached answers could be served stale. All mutation must go
// through AddFact or Extend.
//
//lint:ignore lockcheck deliberate read-only escape hatch: the instance pointer never changes after construction; the doc comment above warns against mutating through it
func (n *Network) Data() *rel.Instance { return n.data }

// AddFact inserts a tuple into a stored relation; it must have the
// relation's declared arity and satisfy the comparisons of the relation's
// storage descriptions (ppl.PDMS.CheckFact). The insert advances that
// relation's generation counter, invalidating exactly the cached answers
// whose rewriting mentions it; cached answers for queries over other
// relations survive. A duplicate insert is a no-op and keeps the whole
// cache warm.
func (n *Network) AddFact(stored string, values ...string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	d := n.spec.Relation(stored)
	if d == nil || d.Kind != ppl.StoredRelation {
		return fmt.Errorf("pdms: %q is not a declared stored relation", stored)
	}
	if err := n.spec.CheckFact(stored, values); err != nil {
		return err
	}
	added, err := n.data.Add(stored, rel.Tuple(values))
	if err == nil && added {
		n.invalidations.Inc()
	}
	return err
}

// Answer is a query result row.
type Answer = rel.Tuple

// Reformulation is the outcome of reformulating one query.
type Reformulation struct {
	// Rewriting is the union of conjunctive queries over stored relations.
	Rewriting lang.UCQ
	// Stats reports rule-goal tree metrics.
	Stats core.Stats
	// Classification is the Theorem 3.1–3.3 complexity classification.
	// The rewriting's answers are always certain answers, but not always
	// all of them: outside PTIME no rewriting can promise that, and within
	// it a recursive definitional mapping needs unfoldings of any depth,
	// which a finite union does not hold.
	Classification ppl.Classification
}

// Reformulate reformulates a textual query ("q(x) :- H:Doctor(x, l)") into
// a union of conjunctive queries over stored relations. Results are cached
// until the specification changes (Extend), per canonicalized query — per
// query shape, with the constants left out, where the constants cannot
// change the rewriting beyond appearing in it (see
// core.Reformulator.Parameterizable). Either way the rewriting is in the
// query's own constants and variable names, as an uncached reformulation
// would print it. The returned struct is the caller's, but its slices may
// be shared — treat the rewriting as read-only.
func (n *Network) Reformulate(query string) (*Reformulation, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	q, e, err := n.reformulateLocked(query, nil)
	if err != nil {
		return nil, err
	}
	ref := e.ref
	ref.Rewriting = e.rewriting(q)
	return &ref, nil
}

// testHookPostKey, when non-nil, runs right after reformulateLocked or
// QueryVia's engine branch computes its generation-stamped cache key, while
// the read lock is held. The cache-race regression tests use it to try to
// interleave a mutation at the worst possible moment: because the key
// snapshot and the computation share one lock section, the mutation must
// block until the computation (and its cache Put) finish.
var testHookPostKey func()

// reformulateLocked parses query and returns its reformulation-cache entry,
// reformulating on a miss under root's "reformulate" child span (root may
// be nil), with n.mu held (any mode). The generation snapshot, the cache
// probe, the computation and the cache store all happen inside the caller's
// lock section: an Extend cannot interleave, so an entry keyed with
// generation g always reflects generation-g state.
func (n *Network) reformulateLocked(query string, root *obs.Span) (q lang.CQ, _ *reformEntry, err error) {
	if q, err = parser.ParseQuery(query); err != nil {
		root.SetErr(err)
		return q, nil, err
	}
	sp := root.Child("reformulate")
	defer func() {
		sp.SetErr(err)
		sp.End()
	}()
	r, err := n.reformulatorLocked()
	if err != nil {
		return q, nil, err
	}
	params := r.Parameterizable(q)
	key := reformKey(n.specGen, q, params)
	if testHookPostKey != nil {
		testHookPostKey()
	}
	if e, ok := n.reforms.Get(key); ok {
		sp.Set("cached", "true")
		sp.SetInt("rewritings", int64(e.ref.Rewriting.Len()))
		return q, e, nil
	}
	start := time.Now()
	e, err := newReformEntry(r, q, params, sp)
	if err != nil {
		return q, nil, err
	}
	n.reformHist.Observe(time.Since(start))
	n.nodesExpanded.Add(uint64(e.ref.Stats.Nodes()))
	sp.SetInt("rewritings", int64(e.ref.Rewriting.Len()))
	n.reforms.Put(key, e, 1)
	return q, e, nil
}

// reformulatorLocked returns the spec generation's Reformulator, building it
// on first use, with n.mu held (any mode): Extend, which changes the spec
// and drops the Reformulator, is excluded for as long as the caller uses it.
func (n *Network) reformulatorLocked() (*core.Reformulator, error) {
	n.reformMu.Lock()
	defer n.reformMu.Unlock()
	if n.reformer == nil {
		r, err := core.New(n.spec, core.Options{})
		if err != nil {
			return nil, err
		}
		n.reformer = r
		n.catalogBuilds.Inc()
	}
	return n.reformer, nil
}

// answerKeyLocked builds the answer-cache key for q given its
// reformulation-cache entry, with n.mu held (any mode): the spec
// generation, then the generation vector of exactly the stored relations
// the rewriting mentions (sorted, so disjunct order cannot split cache
// entries), then the canonicalized query. A mutation of relation R changes
// the key of every query whose rewriting touches R — and only those — while
// old keys never match again and age out of the LRU.
func (n *Network) answerKeyLocked(q lang.CQ, e *reformEntry) string {
	var arr [256]byte
	buf := strconv.AppendUint(arr[:0], n.specGen, 10)
	for _, p := range e.stored {
		buf = append(append(append(buf, '|'), p...), '=')
		buf = strconv.AppendUint(buf, n.data.Gen(p), 10)
	}
	return string(q.AppendCanonical(append(buf, '|'), false))
}

// Query reformulates and executes a textual query over the stored data,
// returning certain answers (possibly not all of them: see
// Reformulation.Classification). It is QueryVia through the network's own
// indexed engine, so its answers are cached under the generation vector of
// the relations the rewriting touches and served until one of *those*
// relations (or the specification) mutates. Callers must not mutate the
// returned slice.
func (n *Network) Query(query string) ([]Answer, error) { return n.QueryVia(query, n.eng) }

// UCQEvaluator executes a reformulated union of conjunctive queries over
// stored relations, attaching its execution spans (per-disjunct evaluation,
// bind-join batches, remote work) under sp, which is nil for an untraced
// query. Both the local indexed engine (*engine.Engine) and the distributed
// *netpeer.Executor implement it. An evaluator returns a fresh slice, but
// its tuples may be shared — the executor's answer to a push-down its
// fragment cache served holds the cached rows — and QueryVia through the
// network's own engine may return a cached slice shared with other
// callers: callers must not mutate an answer's values, nor, from the
// engine, the slice.
type UCQEvaluator interface {
	EvalUCQSpan(u lang.UCQ, sp *obs.Span) ([]rel.Tuple, error)
}

// QueryVia reformulates query at this network and executes the rewriting
// through exec — typically a *netpeer.Executor, so the stored relations
// may live on remote peers instead of in this network's local instance
// (the full paper pipeline: pose at a peer, reformulate, execute across
// the network). Reformulations are cached for every evaluator. The traces
// it samples (see Tracer) cover reformulation and evaluation, remote spans
// included.
//
// Only the network's own engine reads the instance whose generation
// vector keys the answer cache, and that decides both the caching and the
// locking:
//   - exec is the network's engine: the reformulation, the key snapshot,
//     the cache probe, the evaluation and the cache store share one
//     read-lock section, so an entry keyed with generation vector v always
//     holds the vector-v answer.
//   - any other evaluator: nothing is cached (remote data is outside the
//     local generation counters; the executor's fragment cache validates
//     against the serving peers' generations instead), and the read lock
//     is released before evaluating, because exec may do network I/O that
//     must not hold up Extend and AddFact.
//
// Either way the answer's tuples may be shared with a cache (see
// UCQEvaluator): treat their values as read-only.
func (n *Network) QueryVia(query string, exec UCQEvaluator) ([]Answer, error) {
	root := n.tracer.StartTrace("query", obs.Attr{K: "q", V: query})
	defer root.End()
	start := time.Now()
	defer func() { n.queryHist.Observe(time.Since(start)) }()
	n.mu.RLock()
	q, e, err := n.reformulateLocked(query, root)
	if err != nil {
		n.mu.RUnlock()
		return nil, err
	}
	if exec != n.eng {
		n.mu.RUnlock()
		return evalSpan(exec, e.rewriting(q), root)
	}
	defer n.mu.RUnlock()
	key := n.answerKeyLocked(q, e)
	if testHookPostKey != nil {
		testHookPostKey()
	}
	if out, ok := n.answers.Get(key); ok {
		root.Set("answer_cache", "hit")
		return out, nil
	}
	out, err := evalSpan(exec, e.rewriting(q), root)
	if err != nil {
		return nil, err
	}
	n.answers.Put(key, out, 1)
	return out, nil
}

// evalSpan evaluates u through exec under root's "eval" child span.
func evalSpan(exec UCQEvaluator, u lang.UCQ, root *obs.Span) ([]Answer, error) {
	es := root.Child("eval")
	out, err := exec.EvalUCQSpan(u, es)
	es.SetErr(err)
	es.End()
	return out, err
}

// Tracer exposes the network's query tracer: set its sampling knob to
// start collecting traces, and read recent ones from it (cmd/peerd mounts
// them at /debug/traces).
func (n *Network) Tracer() *obs.Tracer { return n.tracer }

// RegisterMetrics registers this network's instruments on reg: the answer
// and reformulation cache counters under pdms.*, the query latency
// histogram as pdms.query_seconds, the reformulation layer's under core.*
// (core.reformulate_seconds times computed reformulations only — cache hits
// run no reformulation), the embedded engine's under engine.*, and the
// journal's, when durable, under storage.*.
func (n *Network) RegisterMetrics(reg *obs.Registry) {
	n.eng.RegisterMetrics(reg)
	if n.dstore != nil {
		n.dstore.RegisterMetrics(reg)
	}
	reg.RegisterHistogram("pdms.query_seconds", n.queryHist)
	reg.RegisterHistogram("core.reformulate_seconds", n.reformHist)
	reg.RegisterCounter("core.catalog_builds", &n.catalogBuilds)
	reg.RegisterCounter("core.nodes_expanded", &n.nodesExpanded)
	reg.RegisterCounter("pdms.answer_cache.hits", &n.answers.Hits)
	reg.RegisterCounter("pdms.answer_cache.misses", &n.answers.Misses)
	reg.RegisterCounter("pdms.invalidations", &n.invalidations)
	reg.RegisterCounter("pdms.reform_cache.hits", &n.reforms.Hits)
	reg.RegisterCounter("pdms.reform_cache.misses", &n.reforms.Misses)
}

// CertainAnswers computes certain answers directly via the chase oracle
// (test/validation path; exponentially slower than Query on large data but
// independent of the reformulation algorithm). Only supported on
// specifications in the tractable fragment.
func (n *Network) CertainAnswers(query string) ([]Answer, error) {
	q, err := parser.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return chase.CertainAnswers(n.spec, n.data, q, chase.Options{})
}

// Classify reports the data complexity of certain-answer computation for
// this network and query per Theorems 3.1–3.3.
func (n *Network) Classify(query string) (ppl.Classification, error) {
	q, err := parser.ParseQuery(query)
	if err != nil {
		return ppl.Classification{}, err
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.spec.Classify(q), nil
}

// Stats summarizes the specification.
func (n *Network) Stats() ppl.Stats {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.spec.Stats()
}
