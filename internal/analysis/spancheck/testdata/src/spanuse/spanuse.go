// Package spanuse is the spancheck fixture for the metric-name contract.
package spanuse

import "obs"

// goodPrefix is a named constant: still compile-time checkable.
const goodPrefix = "engine.parallel_scans"

// Register exercises legal and illegal metric names.
func Register(r *obs.Registry, dynamic string) {
	r.RegisterHistogram("server.request_seconds", nil)
	r.RegisterHistogram(goodPrefix, nil)
	r.RegisterGroup("wire", func(em *obs.Emitter) {
		em.Counter("rows_fetched", 1)
		em.Gauge("max_frame_bytes", 2)
		em.Counter("Bad_Case", 3) // want "violates the lowercase-dotted naming contract"
		em.Gauge("trailing.", 4)  // want "violates the lowercase-dotted naming contract"
	})
	r.RegisterHistogram("Server.Requests", nil)    // want "violates the lowercase-dotted naming contract"
	r.RegisterHistogram("server..requests", nil)   // want "violates the lowercase-dotted naming contract"
	r.RegisterHistogram("9starts.with.digit", nil) // want "violates the lowercase-dotted naming contract"
	r.RegisterHistogram(dynamic, nil)              // want "must be a compile-time string constant"
	r.RegisterHistogram("prefix."+dynamic, nil)    // want "must be a compile-time string constant"
	r.RegisterGroup(dynamic, nil)                  // want "must be a compile-time string constant"
}
