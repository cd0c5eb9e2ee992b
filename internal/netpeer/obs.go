package netpeer

import (
	"repro/internal/obs"
	"repro/internal/wire"
)

// spansToWire converts exported trace spans to their wire form for the
// final-frame piggyback.
func spansToWire(sd []obs.SpanData) []wire.Span {
	if len(sd) == 0 {
		return nil
	}
	out := make([]wire.Span, len(sd))
	for i, d := range sd {
		w := wire.Span{ID: d.ID, Parent: d.Parent, Name: d.Name, Start: d.Start, Dur: d.Dur}
		for _, a := range d.Attrs {
			w.Attrs = append(w.Attrs, wire.SpanAttr{K: a.K, V: a.V})
		}
		out[i] = w
	}
	return out
}

// wireToSpans converts received wire spans back to trace span data for
// adoption into the caller's trace.
func wireToSpans(ws []wire.Span) []obs.SpanData {
	if len(ws) == 0 {
		return nil
	}
	out := make([]obs.SpanData, len(ws))
	for i, w := range ws {
		d := obs.SpanData{ID: w.ID, Parent: w.Parent, Name: w.Name, Start: w.Start, Dur: w.Dur}
		for _, a := range w.Attrs {
			d.Attrs = append(d.Attrs, obs.Attr{K: a.K, V: a.V})
		}
		out[i] = d
	}
	return out
}

// logw emits one structured server diagnostic through Logger (dropped when
// none is set). kv are alternating key/value pairs, slog-style.
func (s *Server) logw(msg string, kv ...any) {
	if s.Logger != nil {
		s.Logger.Warn(msg, kv...)
	}
}

// RegisterMetrics registers the server's wire-level counters as the
// "server" snapshot group of reg, its request-latency histogram as
// "server.request_seconds", and its embedded engine's counters as the
// "engine" group.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterGroup("server", func(em *obs.Emitter) {
		st := s.Stats()
		em.Counter("requests", st.Requests)
		em.Counter("rows_served", st.RowsServed)
		em.Counter("bytes_sent", st.BytesSent)
		em.Counter("bytes_recv", st.BytesRecv)
		em.Counter("read_errors", st.ReadErrors)
		em.Counter("shed", st.Shed)
		em.Counter("accept_retries", st.AcceptRetries)
		em.Gauge("inflight", int64(st.Inflight))
		em.Gauge("queued", int64(st.Queued))
	})
	reg.RegisterHistogram("server.request_seconds", s.reqHist)
	reg.RegisterHistogram("server.queue_wait_seconds", s.queueWaitHist)
	s.eng.RegisterMetrics(reg)
}

// RegisterMetrics registers the executor's aggregated wire counters as the
// "wire" snapshot group of reg and its fragment-cache counters as the
// "fragcache" group.
func (e *Executor) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterGroup("wire", func(em *obs.Emitter) {
		ws := e.WireStats()
		em.Counter("requests", ws.Requests)
		em.Counter("rows_fetched", ws.RowsFetched)
		em.Counter("bytes_sent", ws.BytesSent)
		em.Counter("bytes_recv", ws.BytesRecv)
		em.Gauge("max_frame_bytes", int64(ws.MaxFrameBytes))
		em.Counter("bind_batches", ws.BindBatches)
		em.Counter("health_pings", ws.HealthPings)
		em.Counter("health_drops", ws.HealthDrops)
		em.Counter("dials", ws.Dials)
		em.Counter("pool_waits", ws.PoolWaits)
		em.Counter("busy_retries", ws.BusyRetries)
		em.Counter("distinct_meta", ws.DistinctMeta)
	})
	reg.RegisterGroup("fragcache", func(em *obs.Emitter) {
		fs := e.FragmentStats()
		em.Counter("hits", fs.Hits)
		em.Counter("misses", fs.Misses)
		em.Counter("invalidations", fs.Invalidations)
		em.Counter("evictions", fs.Evictions)
		em.Gauge("entries", int64(fs.Entries))
		em.Gauge("bytes", fs.Bytes)
	})
}
