// Package engine is the indexed query-execution subsystem: it evaluates
// conjunctive queries (CQs) and unions of conjunctive queries (UCQs) over
// rel.Instance data using hash indexes and cardinality join orders,
// replacing the naive nested-loop evaluator in package rel on every hot
// path (pdms.Query, the netpeer server and executor, the chase oracle,
// cmd/reform); BindJoin runs the same plans over rows a callback fetches,
// the netpeer executor's bind-join. rel.EvalCQ remains the reference oracle the engine
// is differentially tested against over randomized corpora (diff_test.go,
// relation_test.go).
//
// # Architecture
//
// Indexes. Each relation gets hash indexes lazily, one per bound-position
// set actually probed: the key is a row's projection onto the probed
// columns, the value a bucket of the matching rows' locations (rel.Loc:
// chunk, offset, length — fixed size, no pointer). A build decodes each
// row once, in walk order, numbering keys by first appearance, and places
// the locations group after group in one []rel.Loc, each bucket a capped
// sub-slice of it. The first build on a relation lays the relation out by
// its key (rel.Relation.LayOut), so one key's rows are adjacent bytes and
// a probe streams them without a cache miss per row; the layout is then
// that index's bucket table. Every key is a string of its own, so no key
// pins the old arena. A relation is laid out once, so an index built on a
// non-empty relation is never left on a superseded layout. An index is
// maintained incrementally under its own lock: a probe first folds in the
// rows of a fresh rel.Rows snapshot past the last catch-up, then answers
// from the buckets. The index keeps that snapshot, so a probe of
// a caught-up index takes only the index's read lock, never the
// relation's. Tuples are never deleted (set semantics, monotone growth),
// which is what makes the catch-up complete. A plan step decodes from
// each candidate row's bytes only the values up to the last position it
// checks or binds.
//
// Planning. A conjunctive query is compiled to a Plan: body atoms are
// greedily reordered by estimated result size and each atom is lowered to
// either an index probe (some positions bound by constants or earlier
// steps) or a full scan (none). The cost model is a relation's cardinality
// scaled by 1/8 for every bound position. Estimates affect ordering only,
// never correctness. Every operand lives in a flat slot array rather than
// substitution maps: the query's atom constants (lang.CQ.Params), its
// comparison constants, then its variables; a run seeds the first from
// its own query. Comparison predicates are attached to the earliest step
// that binds their variables, pruning as soon as possible. compile takes
// the estimates as data, one cardinality per body position. It is the one
// lowering of a conjunctive query: BindJoin runs its plans too, with the
// cardinalities the serving peers reported, breadth-first over a partial
// join of slot rows, fetching each step's rows through its caller's
// callback, which names the atom by body position, with the distinct
// values the partial holds at the positions earlier steps bound.
//
// Execution. A plan runs sequentially on the calling goroutine: a full scan
// walks a rel.Rows snapshot in walk order (rel.Rows.Walk: the laid-out rows
// by group, then the rows inserted since), and ProbeByKeyBatchYield looks
// its index up once and probes its keys in order. A run gets each body
// atom's relation resolved, and finds a probe step's index on the step's
// first entry: a relation has a short list of indexes, each holding its own
// copy of its column list, and the step's key columns pick one out by
// slices.Equal. Each step remembers its last probe for the length of the
// run, the key with the snapshot and bucket it matched, and a step entered
// again with that key reuses them: a key of parameters is looked up once
// per run, and a join key once per run of outer rows that repeat it. A
// reused bucket was taken during the run and only ever grows, so a run
// under concurrent inserts still answers between the instance at its start
// and at its end; the memo ends with the run, when its pooled context is
// released. EvalUCQ runs its disjuncts one after another on the calling
// goroutine: each is an index probe or a small join that takes
// microseconds, less than handing it to another goroutine costs. The
// distributed executor runs the same union loop, EvalUnion, on up to
// MaxUnionFanout goroutines, so that its disjuncts' round trips overlap.
//
// Plan cache. A PlanCache keys compiled plans by the query's shape, its
// canonical form with atom constants as parameters, so rewritings that
// differ only in variable names and atom constants skip planning. Each
// Engine has one, and the netpeer executor one for BindJoin. A lookup takes
// the live sizes, and compiles again when one has drifted more than
// driftFactor from the size the plan was ordered by. LRU is the one cache
// type of the system:
// it is generic in its values and bounded by a cost budget, with its own
// hit, miss and eviction counters and entry and cost gauges. The plan cache
// and pdms's answer and reformulation caches give each entry cost 1, so
// their budget is a count; netpeer's fragment cache gives each fragment its
// bytes.
//
// Tracing. EvalUCQSpan and the unexported evalCQ are the evaluators;
// EvalUCQ and EvalCQ call them with a nil span, so a traced evaluation
// does the same work as an untraced one plus the span bookkeeping.
//
// Streaming. StreamCQ, StreamScan and ProbeByKeyBatchYield are the
// enumeration hooks behind the netpeer server's chunked responses: they
// yield distinct tuples as the plan runs (or the rows are walked),
// materializing nothing beyond the dedup set, so results larger than
// memory-comfortable frames flow out incrementally. Each yields one reused
// view, valid only during the call, so a caller that keeps a tuple copies
// it (ProbeByKeyBatch copies into blocks). A run's pooled context projects
// each match into that view, deduplicates it, and hands it to StreamCQ's
// yield, or collects it for EvalCQ into an answer buffer that keeps its
// capacity from one run to the next and is copied into one exact-size slice.
//
// Invalidation. The engine itself never serves stale data — indexes
// catch up from the relations' rows on each new key within a run, and on
// every run. Answer-level
// caching (and its generation-vector invalidation) lives one layer up, in
// pdms.Network; see ARCHITECTURE.md at the repository root for the
// full-stack picture.
package engine
