// Package store is the journal that keeps a rel.Instance on disk: it makes
// an instance durable, and recovery rebuilds a plain *rel.Instance, which
// is what the engine and the netpeer server read; nothing above can tell a
// recovered instance from one that was never on disk.
//
// Dir journals a rel.Instance to append-only segment files, one sequence
// per relation, that mirror the in-memory insert logs frame for frame (see
// frame.go for the length-prefixed encoding and segment.go for the
// per-file layout). Each segment records the relation generation it starts
// at, so a relation's segment sequence tiles its insert log and replay
// rebuilds a bit-identical instance: same tuples, same log order, same
// generations. Recovery truncates a torn tail in a relation's final
// segment at the last intact frame and rejects corruption anywhere else,
// including a segment of a multi-partition layout. Appends flow through
// rel's append hooks under the relation's lock; frames buffer in memory until
// Flush/Sync/Close or segment rotation. Dir.RegisterMetrics registers the
// storage.* instruments (segments, bytes, truncations, replay time).
package store
