// Package obs is the observability substrate of the system: a lock-free
// metrics registry unifying every subsystem's counters under stable dotted
// names, bucketed latency histograms with percentile snapshots, and a
// cross-peer query tracer whose span trees stitch remote work (shipped
// back on wire response frames) into the posing peer's trace.
//
// A component owns its instruments — Counter, Gauge and Histogram fields it
// updates through atomics on the hot path (no locks, no allocation) — and
// registers each one under its full dotted name with RegisterCounter,
// RegisterGauge or RegisterHistogram. The instrument is the value's only
// holder: a snapshot reads it directly and takes no component lock.
//
// One Registry.Snapshot() returns everything: counters, gauges and histogram
// percentiles keyed by dotted name ("engine.parallel_scans",
// "fragcache.hits", "wire.bind_batches", …). WritePrometheus
// renders the same snapshot in the Prometheus text exposition format, and
// Handler serves both plus recent traces and pprof over HTTP — the
// operational front door mounted by cmd/peerd.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically-increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (may go up and down).
type Gauge struct{ v atomic.Int64 }

// Set stores the current value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the current value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Max raises the value to n if n is larger (a high-water mark).
func (g *Gauge) Max(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// HistogramSnapshot is one histogram's state at snapshot time. Quantiles
// are in seconds, estimated from the bucket layout (see Histogram for the
// error bound).
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum_seconds"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	// Bounds and Counts are the non-empty prefix of the bucket layout:
	// Counts[i] observations were <= Bounds[i] seconds (cumulative), with
	// Count including any overflow past the last bound.
	Bounds []float64 `json:"-"`
	Counts []uint64  `json:"-"`
}

// SnapshotData is one consistent-enough view of a registry: every instrument
// read at one moment (individual values are atomically read;
// cross-counter skew is bounded by the snapshot's own duration).
type SnapshotData struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Registry is a namespace of metrics instruments. Instrument mutation is
// lock-free (atomics); registration and snapshotting take an internal
// mutex (cold paths). The zero value is unusable; use NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// RegisterCounter attaches a component's counter under the dotted name.
// Re-registering a name replaces the previous instrument, so tests and
// reconstructed components can re-register safely; the same holds for
// RegisterGauge and RegisterHistogram.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = c
}

// RegisterGauge attaches a component's gauge under the dotted name.
func (r *Registry) RegisterGauge(name string, g *Gauge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = g
}

// RegisterHistogram attaches a component's histogram under the dotted name.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hists[name] = h
}

// Snapshot returns the current value of every instrument.
func (r *Registry) Snapshot() SnapshotData {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := SnapshotData{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		snap.Histograms[name] = h.Snapshot()
	}
	return snap
}

// promName converts a dotted metric name to the Prometheus exposition
// charset (dots and any other separator become underscores).
func promName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

// sortedKeys returns m's keys sorted, for deterministic exposition output.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples,
// histograms as cumulative _bucket/_sum/_count series.
func (s SnapshotData) WritePrometheus(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		for i, b := range h.Bounds {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, formatLe(b), h.Counts[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
			pn, h.Count, pn, h.Sum, pn, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// formatLe formats a bucket upper bound the way Prometheus expects.
func formatLe(b float64) string { return strings.TrimSuffix(fmt.Sprintf("%g", b), ".0") }
