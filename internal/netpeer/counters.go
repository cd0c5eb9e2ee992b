package netpeer

import "sync/atomic"

// ServerStats is a snapshot of a server's cumulative wire-level counters.
type ServerStats struct {
	// Requests counts protocol requests handled (including errors).
	Requests uint64
	// RowsServed counts tuples returned across all response frames.
	RowsServed uint64
	// BytesSent and BytesRecv count response and request bytes on the wire.
	BytesSent, BytesRecv uint64
	// ReadErrors counts request frames that could not be read cleanly
	// (over-limit or broken mid-line). Over-limit frames also get an
	// in-band error response; the rest tear down the connection with a
	// Logger diagnostic instead of dying silently.
	ReadErrors uint64
	// Shed counts requests refused with an in-band busy error by the
	// admission gate (queue full or queue-wait bound exceeded).
	Shed uint64
	// AcceptRetries counts temporary Accept failures the listen loop rode
	// out with backoff instead of terminating.
	AcceptRetries uint64
	// Inflight and Queued are instantaneous admission-gate readings:
	// requests currently executing and currently waiting for a slot.
	Inflight, Queued int
}

// Stats returns a snapshot of the server's wire-level counters.
func (s *Server) Stats() ServerStats {
	adm := s.gate()
	inflight, queued := adm.load()
	return ServerStats{
		Requests:      s.requests.Load(),
		RowsServed:    s.rowsServed.Load(),
		BytesSent:     s.bytesSent.Load(),
		BytesRecv:     s.bytesRecv.Load(),
		ReadErrors:    s.readErrors.Load(),
		Shed:          adm.shed(),
		AcceptRetries: s.acceptRetries.Load(),
		Inflight:      inflight,
		Queued:        queued,
	}
}

// Counters aggregates wire-level client traffic, typically shared by every
// pooled connection of one Executor. All fields are updated atomically;
// safe for concurrent use.
type Counters struct {
	requests     atomic.Uint64
	rowsFetched  atomic.Uint64
	bytesSent    atomic.Uint64
	bytesRecv    atomic.Uint64
	maxFrame     atomic.Uint64
	bindBatches  atomic.Uint64
	healthPings  atomic.Uint64
	healthDrops  atomic.Uint64
	dials        atomic.Uint64
	poolWaits    atomic.Uint64
	busyRetries  atomic.Uint64
	distinctMeta atomic.Uint64
}

// WireStats is a snapshot of client-side wire counters.
type WireStats struct {
	// Requests counts protocol round trips issued.
	Requests uint64
	// RowsFetched counts tuples received in responses. This is the
	// headline bind-join metric: a semi-join ships only tuples that can
	// join, so RowsFetched drops by the join selectivity versus whole-
	// relation fetching.
	RowsFetched uint64
	// BytesSent and BytesRecv count request and response bytes on the wire.
	BytesSent, BytesRecv uint64
	// MaxFrameBytes is the largest single response frame observed — with
	// chunked streaming it stays near wire.ChunkMaxBytes no matter how
	// large a result is.
	MaxFrameBytes uint64
	// BindBatches counts bound-key batches shipped, one bind request each.
	BindBatches uint64
	// HealthPings counts idle-too-long pooled connections pinged before
	// reuse; HealthDrops counts those the ping found dead (closed and
	// replaced by a fresh dial instead of surfacing a first-use failure).
	HealthPings, HealthDrops uint64
	// Dials counts connections opened (pool misses plus broken-connection
	// replacements). A burst against one peer keeps this near the pool's
	// per-address connection cap instead of scaling with the burst.
	Dials uint64
	// PoolWaits counts borrows that blocked because the per-address
	// connection cap was reached (the dial-storm guard working).
	PoolWaits uint64
	// BusyRetries counts requests re-sent after the peer shed them with an
	// in-band busy error (each retry waits out a jittered backoff first).
	BusyRetries uint64
	// DistinctMeta counts final frames whose metadata piggyback carried
	// per-column distinct estimates — nonzero means the serving peers speak
	// the Distinct extension and the executor's join ordering is running on
	// column statistics rather than cardinality alone.
	DistinctMeta uint64
}

// Snapshot returns the current counter values.
func (ct *Counters) Snapshot() WireStats {
	return WireStats{
		Requests:      ct.requests.Load(),
		RowsFetched:   ct.rowsFetched.Load(),
		BytesSent:     ct.bytesSent.Load(),
		BytesRecv:     ct.bytesRecv.Load(),
		MaxFrameBytes: ct.maxFrame.Load(),
		BindBatches:   ct.bindBatches.Load(),
		HealthPings:   ct.healthPings.Load(),
		HealthDrops:   ct.healthDrops.Load(),
		Dials:         ct.dials.Load(),
		PoolWaits:     ct.poolWaits.Load(),
		BusyRetries:   ct.busyRetries.Load(),
		DistinctMeta:  ct.distinctMeta.Load(),
	}
}

// noteFrame records one received frame's size.
func (ct *Counters) noteFrame(n int) {
	ct.bytesRecv.Add(uint64(n) + 1)
	for {
		cur := ct.maxFrame.Load()
		if uint64(n) <= cur || ct.maxFrame.CompareAndSwap(cur, uint64(n)) {
			return
		}
	}
}
