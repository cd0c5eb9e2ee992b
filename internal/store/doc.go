// Package store is what the storage tier keeps on disk beneath
// rel.Instance: the journal that makes an instance durable and the spill
// buffer for large transient row sets, both built on one segment format.
// Recovery rebuilds a plain *rel.Instance, which is what the engine and the
// netpeer server read; nothing above can tell a recovered instance from one
// that was never on disk.
//
// # Durable segment tier
//
// Dir journals a rel.Instance to append-only per-shard segment files that
// mirror the in-memory insert logs frame for frame (see frame.go for the
// length-prefixed encoding and segment.go for the per-file layout). Each
// segment records the shard generation it starts at, so a shard's segment
// sequence tiles its insert log and replay rebuilds a bit-identical
// instance: same tuples, same per-shard log order, same generations.
// Recovery truncates a torn tail in a shard's final segment at the last
// intact frame and rejects corruption anywhere else. Appends flow through
// rel's append hooks under the shard lock; frames buffer in memory until
// Flush/Sync/Close or segment rotation.
//
// # Spill
//
// RowBuffer gives large transient row sets (the netpeer executor's
// materialized partial join, the fragment cache's cold entries) a byte
// budget: rows stay in a fixed-size in-memory tail and overflow to a spill
// file in the same segment format, streaming back in append order on
// demand. RegisterMetrics exposes the storage.* snapshot group (segments,
// bytes, truncations, replay time, spill counters).
package store
