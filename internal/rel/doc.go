// Package rel is the relational execution substrate: instances of stored
// relations, set-semantics evaluation of conjunctive queries and
// unions of conjunctive queries, and semi-naive datalog evaluation.
//
// The paper defers query execution ("the precise method of evaluating Q' is
// beyond the scope of this paper"); this package supplies it so that
// reformulated queries can actually be answered over stored relations, and
// so the chase-based certain-answer oracle has an evaluator to run on.
//
// # Relations
//
// A Relation is one partition: one tuple set, one append-only insert log,
// one pair of row arenas and one generation counter, behind one mutex.
// Inserts, lookups and the index catch-ups that concurrent evaluations in
// internal/engine run over a relation all take that lock briefly; the log
// is append-only and its handed-out prefixes are never written again, so
// a scan walks a log suffix without holding the lock.
//
// # Rows
//
// A row's bytes are stored once. Insert copies a new row, in its Tuple.Key
// encoding, into the relation's append-only byte arena; that copy is the
// tuple set's key, and the stored row's values are substrings of it, in a
// header carved from the relation's []string arena. The log, the tuple set
// and the engine's indexes share these rows. Each arena's chunks start at
// the size of the relation's first row and double up to 64 KiB, so a small
// relation stays small; handed-out bytes and headers are never written
// again, and a header's capacity is clipped to its length. Insert's caller
// keeps its own row. Clone shares the rows stored so far but starts fresh
// arenas, so neither side's later inserts touch the other's chunks. A
// value a caller keeps pins its whole chunk.
//
// # Answer sets
//
// Compare is the one tuple order and SortTuples the one sort kernel: an
// LSD radix sort on the first 8 bytes of column 0 (big-endian,
// zero-padded) that calls Compare only inside runs of equal keys.
// SortDistinct and DistinctSorted build on it. MergeDistinct unions groups
// that are each already sorted and distinct — the disjuncts' answers in
// engine.EvalUnion — with a k-way heap merge instead of a re-sort.
//
// # Generations
//
// Every relation counts its inserts: Relation.Version is the monotonic
// per-relation insert count that the generation-vector answer cache
// (pdms.Network) and the netpeer gens piggyback are keyed by. Derived
// structures that must catch up incrementally — the engine's lazy hash
// indexes — read the log suffix since the version they last saw
// (AddedSince): tuples are never deleted, so that suffix is exactly what
// the relation gained.
//
// The naive evaluators in this package remain the reference oracles:
// internal/engine — the indexed evaluator used on every hot path
// — is differentially tested against EvalCQ and EvalUCQ, and the chase
// against EvalDatalog. See ARCHITECTURE.md at the repository root for how this layer
// fits under the mediator, engine and wire layers.
package rel
