// Package spanuse is the spancheck fixture for the metric-name contract.
package spanuse

import "obs"

// goodName is a named constant: still compile-time checkable.
const goodName = "engine.parallel_scans"

// Register exercises legal and illegal metric names.
func Register(r *obs.Registry, dynamic string) {
	r.RegisterHistogram("server.request_seconds", nil)
	r.RegisterCounter(goodName, nil)
	r.RegisterCounter("wire.rows_fetched", nil)
	r.RegisterGauge("wire.max_frame_bytes", nil)
	r.RegisterCounter("wire.Bad_Case", nil)     // want "violates the lowercase-dotted naming contract"
	r.RegisterGauge("wire.trailing.", nil)      // want "violates the lowercase-dotted naming contract"
	r.RegisterHistogram("Server.Requests", nil) // want "violates the lowercase-dotted naming contract"
	r.RegisterCounter("server..requests", nil)  // want "violates the lowercase-dotted naming contract"
	r.RegisterGauge("9starts.with.digit", nil)  // want "violates the lowercase-dotted naming contract"
	r.RegisterHistogram(dynamic, nil)           // want "must be a compile-time string constant"
	r.RegisterCounter("prefix."+dynamic, nil)   // want "must be a compile-time string constant"
	r.RegisterGauge(dynamic, nil)               // want "must be a compile-time string constant"
}
