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
// A Relation is one partition: its rows, a location table, a tuple set and
// one generation counter, behind one mutex. Inserts, lookups and the
// snapshots that concurrent evaluations in internal/engine take all hold
// that lock briefly; stored bytes are never written again, so a Rows
// snapshot is read without the lock while inserts go on.
//
// # Rows
//
// A row is stored once, as its Tuple.Key bytes in the relation's chunked
// append-only byte arena, and nothing kept per row holds a pointer, so the
// garbage collector never scans the rows:
//   - the location table maps row id to a Loc (chunk, offset, length).
//     Row ids are insertion order, so the table is the insert log;
//   - the tuple set is an open-addressing []uint64 of (hash tag, row id)
//     entries, hashed with hash/maphash and compared against the arena
//     bytes. A tag's top bits are its home slot, so the set doubles
//     without rehashing a row.
//
// Chunks start at the size of the relation's first row and double up to
// 64 KiB; a longer row gets a chunk of its own. Tuples exist only at the
// API edge: SplitKey decodes a row's values as substrings of its bytes,
// Tuples builds its result on each call, and the append hook sees a view
// valid only during the call. Insert's caller keeps its own row. Clone
// shares the chunks and location table stored so far and copies the tuple
// set; the clone's next row opens a chunk of its own, so neither side's
// later inserts touch the other's chunks. A value a caller keeps pins its
// whole chunk.
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
// indexes — read the rows of a Rows snapshot past the version they last
// saw: tuples are never deleted, so those rows are exactly what the
// relation gained.
//
// The naive evaluators in this package remain the reference oracles:
// internal/engine — the indexed evaluator used on every hot path
// — is differentially tested against EvalCQ and EvalUCQ, and the chase
// against EvalDatalog. See ARCHITECTURE.md at the repository root for how this layer
// fits under the mediator, engine and wire layers.
package rel
