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
// # The row encoding
//
// This package owns the one row codec (row.go): a row is uvarint(arity),
// then per value uvarint(len) and the value's bytes, every uvarint in its
// shortest form, so a tuple has exactly one spelling and byte equality of
// rows is tuple equality. AppendValue and AppendRow write it, SplitRow
// splits a row known to be well formed, DecodeRows validates and decodes a
// block of rows, and DecodeRow one row held in a string (the wire
// envelope's nested lists). A relation stores each row in it, the journal
// (internal/store) frames a stored row as it is, and the wire protocol's
// row block (internal/wire) is rows in it. Tuple.Key is a tuple's row, and
// a composite key of a fixed number of values is their AppendValue
// encodings one after another.
//
// # Rows
//
// A row is stored once, in the row encoding, in the relation's chunked
// append-only byte arena, and nothing kept per row holds a pointer, so the
// garbage collector never scans the rows:
//   - the location table maps row id to a Loc (chunk, offset, length).
//     Row ids are insertion order, so the table is the insert log;
//   - the tuple set is an open-addressing []uint64 of (hash tag, row id)
//     entries, hashed with hash/maphash and compared against the arena
//     bytes. A tag's top bits are its home slot, so the set doubles
//     without rehashing a row;
//   - the layout, once there is one, is the laid-out rows' Locs in layout
//     order.
//
// Chunks start at the size of the relation's first row and double up to
// 64 KiB; a longer row gets a chunk of its own. Insert encodes a tuple
// once; InsertRow takes an encoded row, such as a journaled one, only if
// it is exactly one shortest-form row of the relation's arity. Both go
// through one internal path, so the arena holds only canonical rows and
// byte equality in the tuple set is tuple equality. Tuples exist only at
// the API edge: SplitRow decodes a row's values as substrings of its
// bytes, Tuples builds its result on each call, and the append hook is
// handed the stored row's bytes. Insert's caller keeps its own row. Clone
// shares the chunks, location table and layout stored so far and copies
// the tuple set; the clone's next row opens a chunk of its own, so neither
// side's later inserts touch the other's chunks. A value a caller keeps
// pins its whole chunk.
//
// # Layout
//
// LayOut, which the engine's first index build on a relation calls once,
// copies the rows into one new block grouped by the caller's key: a
// counting sort that reads the old arena once in id order and writes one
// cursor per group, the groups one after another and each in id order,
// then the rows inserted since the caller's snapshot. The block is split
// into chunks before 4 GiB, so Loc offsets stay 32-bit. Row ids, the
// tuple set and the generation do not change; the relation replaces its
// chunk list and location table and keeps nothing of the old chunks,
// which are never written again, so earlier snapshots and handed-out
// values stay valid. A relation is laid out at most once. Rows.Walk is
// the one order a read of a whole snapshot uses — the laid-out rows in
// layout order, then the rows inserted since by id — so it reads the arena
// front to back; Rows.All yields the same walk as an iterator. Rows.Since
// reads rows by id, for an index's catch-up. A value read from a laid-out
// relation pins the whole block.
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
// saw (Rows.Since): tuples are never deleted, so those rows are exactly
// what the relation gained. A layout does not change the generation.
//
// The naive evaluators in this package remain the reference oracles:
// internal/engine — the indexed evaluator used on every hot path
// — is differentially tested against EvalCQ and EvalUCQ, and the chase
// against EvalDatalog. See ARCHITECTURE.md at the repository root for how this layer
// fits under the mediator, engine and wire layers.
package rel
