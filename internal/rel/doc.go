// Package rel is the relational execution substrate: sharded instances of
// stored relations, set-semantics evaluation of conjunctive queries and
// unions of conjunctive queries, and semi-naive datalog evaluation.
//
// The paper defers query execution ("the precise method of evaluating Q' is
// beyond the scope of this paper"); this package supplies it so that
// reformulated queries can actually be answered over stored relations, and
// so the chase-based certain-answer oracle has an evaluator to run on.
//
// # Shards
//
// A Relation is hash-partitioned over N shards by its first column's value
// (rel.ShardOf; N defaults to one shard per CPU, see DefaultShards, and
// N = 1 reproduces the unsharded layout exactly). Each shard owns its own
// tuple set, append-only insert log and generation counter behind its own
// mutex, so inserts to different shards — and the index catch-ups and
// parallel scans internal/engine runs over them — never contend on one
// lock. The partitioning column is the first because join keys and pushed
// constants land there most often in this codebase's workloads, letting the
// engine route a probe whose bound-position set includes column 0 to the
// single shard that can hold matches.
//
// # Generations
//
// Every shard counts its inserts; Relation.Version folds (sums) the
// per-shard counters into the same monotonic per-relation insert count the
// system has always used, so the generation-vector answer cache
// (pdms.Network) and the netpeer gens piggyback are unchanged in meaning
// and granularity. Derived structures that must catch up incrementally —
// the engine's lazy hash indexes — consume the per-shard vector instead
// (ShardVersion / ShardAddedSince): tuples are never deleted, so a shard's
// log suffix is exactly what that shard gained since a given version.
//
// The naive evaluators in this package remain the reference oracles:
// internal/engine — the indexed, parallel evaluator used on every hot path
// — is differentially tested against EvalCQ and EvalUCQ, and the chase
// against EvalDatalog. See ARCHITECTURE.md at the repository root for how this layer
// fits under the mediator, engine and wire layers.
package rel
