package netpeer

import "repro/internal/obs"

// Counters aggregates wire-level client traffic, shared by every pooled
// connection of one Executor, which registers each field under wire.*.
type Counters struct {
	// requests counts protocol round trips issued, and rowsFetched the
	// tuples received in responses: the headline bind-join metric, since a
	// semi-join ships only tuples that can join. bytesSent and bytesRecv
	// count request and response bytes on the wire.
	requests, rowsFetched, bytesSent, bytesRecv obs.Counter
	// maxFrame is the largest single response frame observed; with chunked
	// streaming it stays near wire.ChunkMaxBytes however large a result is.
	maxFrame obs.Gauge
	// bindBatches counts bound-key batches shipped, one bind request each.
	bindBatches obs.Counter
	// dials counts connections opened (pool misses plus broken-connection
	// replacements), and poolWaits the borrows that blocked because the
	// per-address connection cap was reached.
	dials, poolWaits obs.Counter
	// busyRetries counts requests re-sent after the peer shed them with an
	// in-band busy error (each retry waits out a jittered backoff first).
	busyRetries obs.Counter
}
