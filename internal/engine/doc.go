// Package engine is the indexed query-execution subsystem: it evaluates
// conjunctive queries (CQs) and unions of conjunctive queries (UCQs) over
// rel.Instance data using hash indexes and cardinality join orders
// (OrderBody), replacing the naive nested-loop evaluator in package rel on
// every hot path (pdms.Query, the netpeer server and executor, the chase
// oracle, cmd/reform). rel.EvalCQ remains the reference oracle the engine
// is differentially tested against over randomized corpora (diff_test.go,
// relation_test.go).
//
// # Architecture
//
// Indexes. Each relation gets hash indexes lazily, one per bound-position
// set actually probed: the key is a row's projection onto the probed
// columns, the value a bucket of the matching rows' locations (rel.Loc:
// chunk, offset, length — fixed size, no pointer). An index is maintained
// incrementally under its own lock: a probe first folds in the rows of a
// fresh rel.Rows snapshot past the last catch-up, then answers from the
// buckets. The index keeps that snapshot, so a probe of a caught-up index
// takes only the index's read lock, never the relation's. Tuples are
// never deleted (set semantics, monotone growth), which is what makes the
// catch-up complete. A plan step decodes from each candidate row's bytes
// only the values up to the last position it checks or binds.
//
// Planning. A conjunctive query is compiled to a Plan: body atoms are
// greedily reordered by estimated result size and each atom is lowered to
// either an index probe (some positions bound by constants or earlier
// steps) or a full scan (none). The cost model (OrderBody) is a relation's
// cardinality scaled by 1/8 for every bound position; the netpeer executor
// orders its bind-joins with the same function, fed the cardinalities the
// serving peers advertise. Estimates affect ordering only, never
// correctness. Variable bindings live in a flat slot array rather than
// substitution maps; comparison predicates are attached to the earliest
// step that binds their variables, pruning as soon as possible.
//
// Execution. A plan runs sequentially on the calling goroutine: a full
// scan walks a rel.Rows snapshot in insertion order, and
// ProbeByKeyBatchYield probes its keys in order. EvalUCQ lets a bounded
// number of goroutines claim independent disjuncts, the same concurrency
// shape the distributed executor uses.
//
// Plan cache. Compiled plans are cached in an LRU keyed by the query's
// canonical form (lang.CQ.Canonical), so repeated evaluation of identical
// rewritings — the common case once reformulation fans a query into a UCQ —
// skips planning entirely.
//
// Tracing. EvalCQSpan and EvalUCQSpan are the evaluators; EvalCQ and
// EvalUCQ call them with a nil span, so a traced evaluation does the same
// work as an untraced one plus the span bookkeeping.
//
// Streaming. StreamCQ, StreamScan and ProbeByKeyBatchYield are the
// enumeration hooks behind the netpeer server's chunked responses: they
// yield distinct tuples as the plan runs (or the rows are walked),
// materializing nothing beyond the dedup set, so results larger than
// memory-comfortable frames flow out incrementally. StreamScan and
// ProbeByKeyBatchYield yield one reused view of each stored row, valid
// only during the call; StreamCQ yields tuples the caller may keep.
//
// Invalidation. The engine itself never serves stale data — indexes
// catch up from the relations' rows on every probe. Answer-level
// caching (and its generation-vector invalidation) lives one layer up, in
// pdms.Network; see ARCHITECTURE.md at the repository root for the
// full-stack picture.
package engine
