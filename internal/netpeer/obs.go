package netpeer

import "repro/internal/obs"

// logw emits one structured server diagnostic through Logger (dropped when
// none is set). kv are alternating key/value pairs, slog-style.
func (s *Server) logw(msg string, kv ...any) {
	if s.Logger != nil {
		s.Logger.Warn(msg, kv...)
	}
}

// RegisterMetrics registers the server's instruments on reg under the
// server.* names, and its embedded engine's under engine.*.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("server.requests", &s.requests)
	reg.RegisterCounter("server.rows_served", &s.rowsServed)
	reg.RegisterCounter("server.bytes_sent", &s.bytesSent)
	reg.RegisterCounter("server.bytes_recv", &s.bytesRecv)
	reg.RegisterCounter("server.read_errors", &s.readErrors)
	reg.RegisterCounter("server.accept_retries", &s.acceptRetries)
	reg.RegisterCounter("server.shed", &s.admMetrics.shed)
	reg.RegisterGauge("server.inflight", &s.admMetrics.inflight)
	reg.RegisterGauge("server.queued", &s.admMetrics.queued)
	reg.RegisterHistogram("server.request_seconds", &s.reqHist)
	reg.RegisterHistogram("server.queue_wait_seconds", &s.admMetrics.wait)
	s.eng.RegisterMetrics(reg)
}

// RegisterMetrics registers the executor's wire counters, aggregated over
// every pooled connection, on reg under the wire.* names, its fragment
// cache's under fragcache.*, and the compiles of its bind-join plan cache
// (misses and drift) as engine.bindjoin_compiles.
func (e *Executor) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("engine.bindjoin_compiles", e.plans.Compiles())
	ct := &e.counters
	reg.RegisterCounter("wire.requests", &ct.requests)
	reg.RegisterCounter("wire.rows_fetched", &ct.rowsFetched)
	reg.RegisterCounter("wire.bytes_sent", &ct.bytesSent)
	reg.RegisterCounter("wire.bytes_recv", &ct.bytesRecv)
	reg.RegisterGauge("wire.max_frame_bytes", &ct.maxFrame)
	reg.RegisterCounter("wire.bind_batches", &ct.bindBatches)
	reg.RegisterCounter("wire.dials", &ct.dials)
	reg.RegisterCounter("wire.pool_waits", &ct.poolWaits)
	reg.RegisterCounter("wire.busy_retries", &ct.busyRetries)
	fc := e.frags
	reg.RegisterCounter("fragcache.hits", &fc.hits)
	reg.RegisterCounter("fragcache.shared", &fc.shared)
	reg.RegisterCounter("fragcache.misses", &fc.misses)
	reg.RegisterCounter("fragcache.invalidations", &fc.invalidations)
	reg.RegisterCounter("fragcache.evictions", &fc.lru.Evictions)
	reg.RegisterGauge("fragcache.entries", &fc.lru.Entries)
	reg.RegisterGauge("fragcache.bytes", &fc.lru.Cost)
}
