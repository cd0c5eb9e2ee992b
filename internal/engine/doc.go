// Package engine is the indexed, shard-parallel query-execution subsystem:
// it evaluates conjunctive queries (CQs) and unions of conjunctive queries
// (UCQs) over rel.Instance data using hash indexes, statistics-driven join
// orders and a bounded worker pool over the storage shards, replacing the naive nested-loop evaluator in package rel on every
// hot path (pdms.Query, the netpeer server and executor, the chase oracle,
// cmd/reform). rel.EvalCQ remains the reference oracle the engine is
// differentially tested against — including sharded-versus-unsharded runs
// over the randomized corpus in shard_test.go.
//
// # Architecture
//
// Indexes. Each relation gets hash indexes lazily, one per bound-position
// set actually probed, with one sub-index per storage shard: the key is the
// tuple's projection onto the probed columns, the value a bucket of that
// shard's matching tuples. Relations expose per-shard append-only insert
// logs (rel.Relation.ShardVersion / ShardAddedSince), so each shard's
// sub-index is maintained incrementally under the shard's own lock — a
// probe first consumes the log suffix its sub-index has not seen, then
// answers from the buckets. Tuples are never deleted (set semantics,
// monotone growth), which is what makes the log-suffix catch-up complete.
// A probe whose bound-position set includes the partitioning column
// (column 0) is routed to the single shard that can hold matches; other
// probes consult every shard and merge.
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
// Parallelism. A plan whose first step is a full scan of a large sharded
// relation fans the scan out across the relation's shards over a bounded
// worker pool (one worker per CPU by default): each worker drains whole
// shards through its own slot array and funnels matches into one
// serialized yield, so downstream join work — the expensive part —
// parallelizes while callers still observe a single ordered-enough stream
// (discovery order is unspecified, answers are identical).
// ProbeByKeyBatchYield fans large bound-key batches out the same way.
// Unsharded relations, small relations and single-CPU configurations take
// the sequential paths unchanged. EvalUCQ additionally lets a bounded
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
// yield distinct tuples as the plan runs (or the shard logs are walked),
// materializing nothing beyond the dedup set, so results larger than
// memory-comfortable frames flow out incrementally.
//
// Invalidation. The engine itself never serves stale data — per-shard
// indexes catch up from the shard logs on every probe. Answer-level
// caching (and its generation-vector invalidation) lives one layer up, in
// pdms.Network; see ARCHITECTURE.md at the repository root for the
// full-stack picture.
package engine
