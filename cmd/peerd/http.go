package main

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/obs"
)

// handler returns the operational front door: the registry's snapshot at
// /metrics (JSON by default, Prometheus text with ?format=prometheus),
// recent sampled traces at /debug/traces (?n= caps the count, ?sample=
// adjusts the tracer's sampling knob at runtime), and the standard
// net/http/pprof endpoints under /debug/pprof/. Either argument may be
// nil; the corresponding endpoints degrade gracefully.
func handler(reg *obs.Registry, tracer *obs.Tracer) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			http.Error(w, "no registry", http.StatusNotFound)
			return
		}
		snap := reg.Snapshot()
		switch r.URL.Query().Get("format") {
		case "prometheus", "prom", "text":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = snap.WritePrometheus(w)
		default:
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(snap)
		}
	})

	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		if s := r.URL.Query().Get("sample"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil {
				http.Error(w, "bad sample value", http.StatusBadRequest)
				return
			}
			tracer.SetSampleEvery(n)
		}
		n := 16
		if s := r.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				n = v
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(tracer.RenderRecent(n)))
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}
