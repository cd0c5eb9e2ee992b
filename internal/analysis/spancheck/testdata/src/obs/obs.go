// Package obs is the spancheck fixture stub mirroring the real
// observability package's contracts.
package obs

import "sync"

// Span is one trace node. All methods are safe on a nil receiver.
type Span struct {
	mu    sync.Mutex
	name  string
	attrs []string
}

// Name returns the span name (guarded: idiomatic).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Set appends an attribute after an ||-combined guard.
func (s *Span) Set(k string) {
	if s == nil || k == "" {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, k)
	s.mu.Unlock()
}

// SetTwo delegates without touching fields: no guard needed.
func (s *Span) SetTwo(k, v string) { s.Set(k + "=" + v) }

// BadName reads a field with no guard.
func (s *Span) BadName() string {
	return s.name // want "method Span.BadName touches receiver state without a nil-receiver guard"
}

// BadLateGuard checks nil only after the access.
func (s *Span) BadLateGuard() string {
	n := s.name // want "method Span.BadLateGuard touches receiver state without a nil-receiver guard"
	if s == nil {
		return ""
	}
	return n
}

// BadDeref copies through the pointer without a guard.
func (s *Span) BadDeref() Span {
	return *s // want "method Span.BadDeref touches receiver state without a nil-receiver guard"
}

// BadUselessGuard checks nil but does not return.
func (s *Span) BadUselessGuard() string {
	if s == nil {
		_ = 0
	}
	return s.name // want "method Span.BadUselessGuard touches receiver state without a nil-receiver guard"
}

// fill is an unexported helper: its exported callers hold the guard, so
// it is out of the contract's scope.
func (s *Span) fill(k string) { s.attrs = append(s.attrs, k) }

// plain has no nil-receiver promise, so its methods are unconstrained.
type plain struct{ n int }

func (p *plain) get() int { return p.n }

// Registry is the metric namespace stub.
type Registry struct{ names []string }

// RegisterCounter attaches an existing counter.
func (r *Registry) RegisterCounter(name string, c any) { r.names = append(r.names, name) }

// RegisterGauge attaches an existing gauge.
func (r *Registry) RegisterGauge(name string, g any) { r.names = append(r.names, name) }

// RegisterHistogram attaches an existing histogram.
func (r *Registry) RegisterHistogram(name string, h any) { r.names = append(r.names, name) }
