// Package repro is a from-scratch Go reproduction of "Schema Mediation in
// Peer Data Management Systems" (Halevy, Ives, Suciu, Tatarinov; ICDE
// 2003) — the Piazza PDMS schema-mediation layer — grown into a
// production-shaped distributed query system.
//
// The public API lives in package repro/pdms; the root package holds only
// this overview. The paper's evaluation (Figures 3 and 4) is a pair of shape
// tests in internal/swarm over its Strata topology, the Section 5 workload
// model: tree nodes and rewritings grow with the PDMS diameter, asserted in
// counts. The Section 4.3 optimizations always run, so there is no ablation
// sweep. cmd/bench is the repository's end-to-end benchmark.
// ARCHITECTURE.md at the repository root is the top-to-bottom guide to
// every layer (mediator → reformulation → engine → wire → executor) with
// per-layer dataflow diagrams and code pointers; the peer wire protocol is
// specified normatively in internal/wire/PROTOCOL.md.
//
// Query execution — which the paper leaves out of scope — runs through the
// indexed engine in internal/engine over the storage layer in
// internal/rel: every relation is one partition (its rows stored once in
// an append-only arena, pointer-free tables over them, one lock), a plan
// runs sequentially, hash indexes are maintained incrementally from the
// relations' rows, and the
// greedy join planner orders atoms by cardinality, discounted by 1/8 per
// bound argument. The naive evaluator in internal/rel remains the
// differential-testing oracle over a randomized query corpus.
//
// Caching is two-level, both levels invalidated at per-relation
// granularity by generation counters (each relation's monotonic insert
// count):
//
//   - Local: pdms.Network caches query answers keyed by the canonical
//     query, the spec generation, and the generation *vector* of exactly
//     the stored relations the query's rewriting touches. An AddFact on
//     relation R invalidates only cached answers whose rewriting mentions
//     R; Extend (which can change rewritings) invalidates everything. The
//     key is snapshotted and the answer computed inside one lock section,
//     so no reader ever sees a mixed-generation answer.
//   - Distributed: the netpeer Executor caches fetched/probed bind-join
//     fragments across queries keyed by (peer, atom pattern, bound-key-set
//     hash), stamped with the serving peer's per-relation generation
//     (piggybacked on every wire response). The next fetch of a cached
//     fragment carries that generation, and the peer answers "unchanged"
//     with no rows while it is current. A repeated identical cross-peer
//     query ships zero rows in one request per atom.
//
// Distributed execution lives in internal/netpeer: peers serve stored
// relations over TCP (chunked streaming frames, O(chunk) memory per
// response), and cross-peer rewritings run as streaming, adaptive
// bind-joins — the executor ships the distinct join keys bound
// so far and the remote peer probes its hash indexes, so only
// tuples that can join cross the wire. UCQ disjuncts fan out through the
// engine's one union loop on per-address connection pools, with one
// retry loop that redials a dead reused connection once per call,
// and share one fetch of each distinct atom fragment per query;
// pdms.Network.QueryVia plugs the mediator into that executor.
package repro
