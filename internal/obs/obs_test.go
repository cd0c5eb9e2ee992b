package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegisterCounterGauge pins the registration contract: each kind lands
// in its own snapshot map, a snapshot reads the instruments' live values,
// and re-registering a name replaces the previous instrument.
func TestRegisterCounterGauge(t *testing.T) {
	r := NewRegistry()
	var hits, reqs Counter
	var depth Gauge
	r.RegisterCounter("a.hits", &hits)
	r.RegisterGauge("a.depth", &depth)
	r.RegisterCounter("legacy.reqs", &reqs)
	hits.Add(3)
	hits.Inc()
	depth.Set(7)
	depth.Add(-2)
	reqs.Add(42)

	snap := r.Snapshot()
	if got := snap.Counters["a.hits"]; got != 4 {
		t.Fatalf("a.hits = %d, want 4", got)
	}
	if got := snap.Gauges["a.depth"]; got != 5 {
		t.Fatalf("a.depth = %d, want 5", got)
	}
	if got := snap.Counters["legacy.reqs"]; got != 42 {
		t.Fatalf("legacy.reqs = %d, want 42", got)
	}
	if _, ok := snap.Gauges["a.hits"]; ok {
		t.Fatal("a counter leaked into the gauges map")
	}
	if _, ok := snap.Counters["a.depth"]; ok {
		t.Fatal("a gauge leaked into the counters map")
	}
	if len(snap.Counters) != 2 || len(snap.Gauges) != 1 || len(snap.Histograms) != 0 {
		t.Fatalf("snapshot sizes = %d/%d/%d, want 2/1/0", len(snap.Counters), len(snap.Gauges), len(snap.Histograms))
	}

	// Later updates show in the next snapshot without re-registering.
	hits.Inc()
	depth.Max(3) // below the current 5: no change
	depth.Max(9)
	snap = r.Snapshot()
	if got := snap.Counters["a.hits"]; got != 5 {
		t.Fatalf("a.hits after Inc = %d, want 5", got)
	}
	if got := snap.Gauges["a.depth"]; got != 9 {
		t.Fatalf("a.depth after Max = %d, want 9", got)
	}

	// Re-registering a name replaces the instrument.
	var reqs2 Counter
	reqs2.Add(43)
	r.RegisterCounter("legacy.reqs", &reqs2)
	var depth2 Gauge
	r.RegisterGauge("a.depth", &depth2)
	snap = r.Snapshot()
	if got := snap.Counters["legacy.reqs"]; got != 43 {
		t.Fatalf("after re-register legacy.reqs = %d, want 43", got)
	}
	if got := snap.Gauges["a.depth"]; got != 0 {
		t.Fatalf("after re-register a.depth = %d, want 0", got)
	}
}

func TestGaugeMaxConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Max(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := g.Load(); got != 7999 {
		t.Fatalf("max = %d, want 7999", got)
	}
}

// TestHistogramPercentileBounds checks the documented accuracy bound: a
// quantile estimate is within one bucket ratio (sqrt 2, plus interpolation
// slack) of the true sample quantile.
func TestHistogramPercentileBounds(t *testing.T) {
	h := NewHistogram()
	// 1000 samples: 1ms..1000ms uniformly.
	var samples []float64
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i) * time.Millisecond
		h.Observe(d)
		samples = append(samples, d.Seconds())
	}
	snap := h.Snapshot()
	if snap.Count != 1000 {
		t.Fatalf("count = %d, want 1000", snap.Count)
	}
	wantSum := 0.0
	for _, s := range samples {
		wantSum += s
	}
	if math.Abs(snap.Sum-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", snap.Sum, wantSum)
	}
	check := func(name string, got, trueQ float64) {
		lo, hi := trueQ/math.Sqrt2*0.99, trueQ*math.Sqrt2*1.01
		if got < lo || got > hi {
			t.Errorf("%s = %v outside [%v, %v] (true %v)", name, got, lo, hi, trueQ)
		}
	}
	check("p50", snap.P50, 0.500)
	check("p99", snap.P99, 0.990)
	check("p999", snap.P999, 0.999)
}

func TestHistogramOverflowAndZero(t *testing.T) {
	h := NewHistogram()
	h.Observe(-time.Second) // clamped to 0
	h.Observe(1000 * time.Hour)
	snap := h.Snapshot()
	if snap.Count != 2 {
		t.Fatalf("count = %d, want 2", snap.Count)
	}
	if snap.P999 != histBounds[histNumBuckets-1] {
		t.Fatalf("overflow p999 = %v, want last bound %v", snap.P999, histBounds[histNumBuckets-1])
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*per+i) * time.Microsecond)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				h.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := h.Snapshot().Count; got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	var scans Counter
	scans.Add(9)
	r.RegisterCounter("engine.scans", &scans)
	var bytes Gauge
	bytes.Set(1024)
	r.RegisterGauge("frag.bytes", &bytes)
	h := NewHistogram()
	h.Observe(2 * time.Millisecond)
	r.RegisterHistogram("query.latency", h)
	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE engine_scans counter",
		"engine_scans 9",
		"# TYPE frag_bytes gauge",
		"frag_bytes 1024",
		"# TYPE query_latency histogram",
		`query_latency_bucket{le="+Inf"} 1`,
		"query_latency_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(8)
	if s := tr.StartTrace("q"); s != nil {
		t.Fatal("sampling off: StartTrace should return nil")
	}
	tr.SetSampleEvery(3)
	var sampled int
	for i := 0; i < 9; i++ {
		if s := tr.StartTrace("q"); s != nil {
			sampled++
			s.End()
		}
	}
	if sampled != 3 {
		t.Fatalf("sampled %d of 9 with 1-in-3, want 3", sampled)
	}
	if got := len(tr.Recent(10)); got != 3 {
		t.Fatalf("recent = %d, want 3", got)
	}
	if tr.Recorded() != 3 {
		t.Fatalf("recorded = %d, want 3", tr.Recorded())
	}
}

func TestNilTracerAndSpanSafe(t *testing.T) {
	var tr *Tracer
	s := tr.StartTrace("q")
	if s != nil {
		t.Fatal("nil tracer should not trace")
	}
	// Every method must be nil-safe.
	c := s.Child("x")
	c.Set("k", "v")
	c.SetInt("n", 1)
	c.SetErr(nil)
	c.End()
	s.End()
	s.AdoptRemote("p", []SpanData{{ID: 1, Name: "r"}})
	if s.Render() != "" || s.TraceID() != "" || s.ID() != 0 {
		t.Fatal("nil span accessors should return zero values")
	}
	tr.SetSampleEvery(1)
	tr.Record(nil)
	if tr.Recent(5) != nil || tr.RenderRecent(5) == "" {
		t.Fatal("nil tracer recent should be empty")
	}
}

func TestSpanTreeAndRender(t *testing.T) {
	tr := NewTracer(4)
	tr.SetSampleEvery(1)
	root := tr.StartTrace("query", Attr{"q", "Q(x)"})
	ref := root.Child("reformulate")
	ref.SetInt("rules", 2)
	ref.End()
	ev := root.Child("eval")
	ev.End()
	root.End()

	if root.TraceID() == "" {
		t.Fatal("empty trace id")
	}
	if root.Find("reformulate") != ref {
		t.Fatal("Find failed")
	}
	out := root.Render()
	for _, want := range []string{"trace " + root.TraceID(), "query", "q=Q(x)", "reformulate", "rules=2", "eval"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "unfinished") {
		t.Errorf("all spans ended, render shows unfinished:\n%s", out)
	}
}

func TestExportAdoptRoundTrip(t *testing.T) {
	// Server side: detached remote tree with nested children.
	srv := StartRemote("serve.bind", Attr{"op", "bind"})
	scan := srv.Child("scan")
	probe := scan.Child("probe")
	probe.End()
	scan.End()
	srv.End()

	data := srv.Export(77)
	if len(data) != 3 {
		t.Fatalf("exported %d spans, want 3", len(data))
	}
	if data[0].Parent != 77 {
		t.Fatalf("root parent = %d, want 77", data[0].Parent)
	}

	// Client side: adopt under the local batch span.
	tr := NewTracer(4)
	tr.SetSampleEvery(1)
	root := tr.StartTrace("query")
	batch := root.Child("bind.batch")
	batch.AdoptRemote("127.0.0.1:9", data)
	batch.End()
	root.End()

	kids := batch.Children()
	if len(kids) != 1 {
		t.Fatalf("batch has %d children, want 1 (the remote root)", len(kids))
	}
	r0 := kids[0]
	if r0.Name() != "serve.bind" || r0.Remote() != "127.0.0.1:9" {
		t.Fatalf("adopted root = %q peer %q", r0.Name(), r0.Remote())
	}
	if got := r0.Children(); len(got) != 1 || got[0].Name() != "scan" {
		t.Fatalf("remote nesting lost: %+v", got)
	}
	if f := root.Find("probe"); f == nil || f.Remote() != "127.0.0.1:9" {
		t.Fatal("grandchild remote span not stitched")
	}
	if !strings.Contains(root.Render(), "[peer 127.0.0.1:9]") {
		t.Fatalf("render missing peer label:\n%s", root.Render())
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTracer(2)
	tr.SetSampleEvery(1)
	root := tr.StartTrace("big")
	var made int
	for i := 0; i < defaultMaxSpans+10; i++ {
		if c := root.Child("c"); c != nil {
			c.End()
			made++
		}
	}
	if made >= defaultMaxSpans {
		t.Fatalf("span cap not enforced: made %d", made)
	}
	root.End()
	if !strings.Contains(root.Render(), "[truncated]") {
		t.Fatal("truncated trace not marked in render")
	}
}

func TestRingBufferEviction(t *testing.T) {
	tr := NewTracer(2)
	tr.SetSampleEvery(1)
	for i := 0; i < 5; i++ {
		tr.StartTrace("q").End()
	}
	if got := len(tr.Recent(10)); got != 2 {
		t.Fatalf("ring kept %d, want 2", got)
	}
}

func TestSnapshotConcurrentWithMutation(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var c Counter
	var g Gauge
	h := NewHistogram()
	r.RegisterCounter("m.n", &c)
	r.RegisterGauge("m.g", &g)
	r.RegisterHistogram("m.h", h)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Inc()
				g.Add(1)
				h.Observe(time.Microsecond)
			}
		}
	}()
	var prev uint64
	for i := 0; i < 100; i++ {
		snap := r.Snapshot()
		got := snap.Counters["m.n"]
		if got < prev {
			t.Fatalf("counter went backwards: %d -> %d", prev, got)
		}
		prev = got
	}
	close(stop)
	wg.Wait()
}
