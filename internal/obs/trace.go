package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// defaultMaxSpans caps the spans of one trace: a deep rule-goal tree or a
// huge bind-join fan-out must not turn one sampled query into an unbounded
// allocation. Children past the cap are dropped and the trace is marked
// truncated.
const defaultMaxSpans = 4096

// Attr is one key/value annotation on a span.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// trace is the shared state of one span tree.
type trace struct {
	tracer  *Tracer
	id      string
	spanSeq atomic.Uint64
	nspans  atomic.Int64
	maxSpan int64
	trunc   atomic.Bool
}

// Span is one timed node of a trace tree. All methods are safe on a nil
// receiver and return nil children, so call sites never branch on whether
// tracing is sampled — an unsampled query pays only the nil checks.
// Concurrent children (parallel UCQ disjuncts, pipelined bind batches) may
// be created and ended from different goroutines.
type Span struct {
	tr     *trace
	id     uint64
	parent *Span
	name   string
	start  time.Time

	mu sync.Mutex
	// attrs holds the span's key/value labels, guarded by mu.
	attrs []Attr
	// children holds the completed and in-flight child spans, guarded by mu.
	children []*Span
	// dur is the span's final duration once ended, guarded by mu.
	dur time.Duration
	// ended records that End (or remote adoption) ran, guarded by mu.
	ended bool
	// remote is the serving peer address for adopted remote spans,
	// guarded by mu: adoption happens while a live trace may already be
	// rendered.
	remote string
}

// newTraceID returns a random 64-bit hex trace identifier.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// time-derived ID rather than panicking in an observability path.
		return fmt.Sprintf("t%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

func newTrace(tracer *Tracer, maxSpans int) *trace {
	if maxSpans <= 0 {
		maxSpans = defaultMaxSpans
	}
	return &trace{tracer: tracer, id: newTraceID(), maxSpan: int64(maxSpans)}
}

func (t *trace) newSpan(parent *Span, name string, attrs []Attr) *Span {
	if t.nspans.Add(1) > t.maxSpan {
		t.trunc.Store(true)
		return nil
	}
	return &Span{
		tr:     t,
		id:     t.spanSeq.Add(1),
		parent: parent,
		name:   name,
		start:  time.Now(),
		attrs:  attrs,
	}
}

// TraceID returns the trace identifier ("" on a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.id
}

// ID returns the span's identifier within its trace (0 on a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Child starts a child span. Nil-safe; returns nil when the trace's span
// budget is exhausted (the trace is then marked truncated).
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	c := s.tr.newSpan(s, name, attrs)
	if c == nil {
		return nil
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Set adds (or appends — attrs are a list, last writer wins at render) one
// annotation. Nil-safe.
func (s *Span) Set(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{k, v})
	s.mu.Unlock()
}

// SetInt is Set for integer values. Nil-safe, and formats nothing on a nil
// span: untraced evaluation calls it once per disjunct.
func (s *Span) SetInt(k string, v int64) {
	if s != nil {
		s.Set(k, strconv.FormatInt(v, 10))
	}
}

// SetErr records a non-nil error on the span. Nil-safe in both arguments.
func (s *Span) SetErr(err error) {
	if s == nil || err == nil {
		return
	}
	s.Set("error", err.Error())
}

// End finishes the span. Ending the root span of a tracer-started trace
// records the trace in the tracer's ring buffer. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	s.mu.Unlock()
	if s.parent == nil && s.tr.tracer != nil {
		s.tr.tracer.Record(s)
	}
}

// Duration returns the span's duration (zero until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// SpanData is the flattened, serializable form of one span — what crosses
// the wire, as JSON under these tags, when a serving peer ships its spans
// back to the posing peer. IDs are scoped to the exporting side's trace;
// Parent references either another exported span or the requesting side's
// span named in the request.
type SpanData struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start,omitempty"` // UnixNano on the exporting peer's clock
	Dur    int64  `json:"dur"`             // nanoseconds
	Attrs  []Attr `json:"attrs,omitempty"`
}

// StartRemote starts a detached span tree for work done on behalf of a
// remote caller: it belongs to no tracer, is always sampled, and is
// exported with Export once ended. parentID is the caller-side span the
// exported root will be parented under.
func StartRemote(name string, attrs ...Attr) *Span {
	t := newTrace(nil, 0)
	root := t.newSpan(nil, name, attrs)
	return root
}

// Export flattens the ended span tree into SpanData, with the root's
// Parent set to rootParent (the requesting side's span ID carried in the
// request). Children reference their parent's exported ID.
func (s *Span) Export(rootParent uint64) []SpanData {
	if s == nil {
		return nil
	}
	var out []SpanData
	var walk func(sp *Span, parent uint64)
	walk = func(sp *Span, parent uint64) {
		sp.mu.Lock()
		d := SpanData{
			ID:     sp.id,
			Parent: parent,
			Name:   sp.name,
			Start:  sp.start.UnixNano(),
			Dur:    int64(sp.dur),
			Attrs:  append([]Attr(nil), sp.attrs...),
		}
		children := append([]*Span(nil), sp.children...)
		sp.mu.Unlock()
		out = append(out, d)
		for _, c := range children {
			walk(c, sp.id)
		}
	}
	walk(s, rootParent)
	return out
}

// AdoptRemote grafts exported remote spans under s: a span whose Parent
// matches another span in the batch is attached there; every other span
// (in particular those parented on s.ID(), the ID shipped in the request)
// becomes a direct child of s. Remote IDs live in the serving peer's
// numbering, so adopted spans get fresh local IDs; peer labels the spans
// with the serving address. Remote clocks are not compared with local
// ones — only the remote-reported durations are kept.
func (s *Span) AdoptRemote(peer string, spans []SpanData) {
	if s == nil || len(spans) == 0 {
		return
	}
	adopted := make(map[uint64]*Span, len(spans))
	inBatch := make(map[uint64]bool, len(spans))
	for _, d := range spans {
		inBatch[d.ID] = true
	}
	for _, d := range spans {
		parent := s
		if d.Parent != 0 && inBatch[d.Parent] {
			if p := adopted[d.Parent]; p != nil {
				parent = p
			}
		}
		c := parent.Child(d.Name, d.Attrs...)
		if c == nil {
			return // trace span budget exhausted; trace is marked truncated
		}
		c.mu.Lock()
		c.remote = peer
		c.dur = time.Duration(d.Dur)
		c.ended = true
		c.mu.Unlock()
		adopted[d.ID] = c
	}
}

// Render returns the span tree as indented text: one line per span with
// its duration, attributes and (for adopted spans) the serving peer.
func (s *Span) Render() string {
	if s == nil {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %s", s.TraceID())
	if s.tr.trunc.Load() {
		sb.WriteString("  [truncated]")
	}
	sb.WriteByte('\n')
	var walk func(sp *Span, depth int)
	walk = func(sp *Span, depth int) {
		sp.mu.Lock()
		name, dur, attrs, remote := sp.name, sp.dur, append([]Attr(nil), sp.attrs...), sp.remote
		children := append([]*Span(nil), sp.children...)
		ended := sp.ended
		sp.mu.Unlock()
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(name)
		if ended {
			fmt.Fprintf(&sb, " (%s)", dur.Round(time.Microsecond))
		} else {
			sb.WriteString(" (unfinished)")
		}
		if remote != "" {
			fmt.Fprintf(&sb, " [peer %s]", remote)
		}
		for _, a := range attrs {
			fmt.Fprintf(&sb, " %s=%s", a.K, a.V)
		}
		sb.WriteByte('\n')
		for _, c := range children {
			walk(c, depth+1)
		}
	}
	walk(s, 1)
	return sb.String()
}

// Find returns the first span named name in a depth-first walk of the tree
// rooted at s (nil when absent) — a test and tooling convenience.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.name == name {
		return s
	}
	s.mu.Lock()
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Children returns a copy of the span's current children.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Remote returns the serving peer address for adopted spans ("" for local
// spans).
func (s *Span) Remote() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remote
}

// AttrMap returns the span's attributes as a map (last writer wins).
func (s *Span) AttrMap() map[string]string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.attrs))
	for _, a := range s.attrs {
		out[a.K] = a.V
	}
	return out
}

// Tracer samples query traces and ring-buffers the most recent ones. All
// methods are safe for concurrent use and safe on a nil receiver (a nil
// tracer never samples), so components hold an optional *Tracer and call
// it unconditionally.
type Tracer struct {
	sampleEvery atomic.Int64
	seq         atomic.Uint64
	maxSpans    int

	mu sync.Mutex
	// ring holds finished root spans, ring[next-1] most recent; guarded
	// by mu.
	ring []*Span
	// next is the ring cursor, guarded by mu.
	next int
	// n is the total recorded count, guarded by mu.
	n uint64
}

// NewTracer returns a tracer ring-buffering the last ringCap finished
// traces (minimum 1). Sampling starts off; enable with SetSampleEvery.
func NewTracer(ringCap int) *Tracer {
	if ringCap < 1 {
		ringCap = 1
	}
	return &Tracer{ring: make([]*Span, ringCap), maxSpans: defaultMaxSpans}
}

// SetSampleEvery sets the sampling knob: every nth StartTrace call returns
// a real trace; 0 (the initial state) disables sampling entirely, 1 traces
// every query. Safe to adjust at runtime.
func (t *Tracer) SetSampleEvery(n int) {
	if t == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	t.sampleEvery.Store(int64(n))
}

// SampleEvery returns the current sampling knob.
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.sampleEvery.Load())
}

// StartTrace starts a new trace when this call is sampled, returning its
// root span — or nil (and no allocation beyond the atomic tick) when
// sampling says skip. End the returned root to record the trace.
func (t *Tracer) StartTrace(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	n := t.sampleEvery.Load()
	if n <= 0 {
		return nil
	}
	if (t.seq.Add(1)-1)%uint64(n) != 0 {
		return nil
	}
	return t.force(name, attrs)
}

// ForceTrace starts a trace regardless of the sampling knob, to trace one
// specific operation on demand (a test's, say); queries through pdms are
// traced by setting the knob and read back from Recent.
func (t *Tracer) ForceTrace(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.force(name, attrs)
}

func (t *Tracer) force(name string, attrs []Attr) *Span {
	tr := newTrace(t, t.maxSpans)
	return tr.newSpan(nil, name, attrs)
}

// Record adds a finished root span to the ring buffer. Root spans started
// by this tracer record themselves on End; Record is also useful for
// detached spans (a server recording the request trees it exported to
// callers).
func (t *Tracer) Record(root *Span) {
	if t == nil || root == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.next] = root
	t.next = (t.next + 1) % len(t.ring)
	t.n++
	t.mu.Unlock()
}

// Recorded returns the total number of traces recorded.
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Recent returns up to max finished traces, most recent first.
func (t *Tracer) Recent(max int) []*Span {
	if t == nil || max <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if max > len(t.ring) {
		max = len(t.ring)
	}
	out := make([]*Span, 0, max)
	for i := 0; i < max; i++ {
		idx := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
		if t.ring[idx] == nil {
			break
		}
		out = append(out, t.ring[idx])
	}
	return out
}

// RenderRecent renders up to max recent traces as text, most recent
// first.
func (t *Tracer) RenderRecent(max int) string {
	spans := t.Recent(max)
	var sb strings.Builder
	for _, s := range spans {
		sb.WriteString(s.Render())
		sb.WriteByte('\n')
	}
	if sb.Len() == 0 {
		return "(no traces recorded)\n"
	}
	return sb.String()
}
