package netpeer

import (
	"context"
	"encoding/binary"
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/rel"
	"repro/internal/wire"
)

// TestStreamLargeResultRegression pins the 16MB frame-ceiling fix: a
// single-relation result whose one-shot JSON frame exceeded the old
// scanner cap (16MiB) killed the connection with only "netpeer: connection
// closed" on the client. With chunked streaming the same result flows
// through in bounded frames. The test drives both row paths — a raw client
// scan and an executor eval push-down — and asserts every received frame
// stayed near the chunk bound while the total crossed the old ceiling.
func TestStreamLargeResultRegression(t *testing.T) {
	const (
		rows    = 2500
		valSize = 8 * 1024 // ~20MB of values total, > the old 16MiB cap
	)
	pad := strings.Repeat("x", valSize)
	data := map[string][]rel.Tuple{"L.big": nil}
	for i := 0; i < rows; i++ {
		data["L.big"] = append(data["L.big"], rel.Tuple{fmt.Sprintf("k%06d", i), pad})
	}
	addr := startServer(t, data)

	// Raw client scan.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.counters = &Counters{}
	got, err := c.Scan("L.big")
	if err != nil {
		t.Fatalf("scan of >16MB relation failed (the old one-shot frame died here): %v", err)
	}
	if len(got) != rows {
		t.Fatalf("scan rows = %d, want %d", len(got), rows)
	}
	if n := c.counters.bytesRecv.Load(); n < 16*1024*1024 {
		t.Fatalf("fixture too small: received %d bytes, want > 16MiB", n)
	}
	if n := c.counters.maxFrame.Load(); n > 2*wire.ChunkMaxBytes {
		t.Fatalf("frame of %d bytes escaped the chunk bound %d", n, wire.ChunkMaxBytes)
	}

	// Executor eval push-down over the same relation.
	ex := NewExecutor()
	defer ex.Close()
	if err := ex.Discover(addr); err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery(`q(x, y) :- L.big(x, y)`)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatalf("eval of >16MB result failed: %v", err)
	}
	if len(ans) != rows {
		t.Fatalf("eval rows = %d, want %d", len(ans), rows)
	}
	if n := ex.counters.maxFrame.Load(); n > 2*wire.ChunkMaxBytes {
		t.Fatalf("executor frame of %d bytes escaped the chunk bound", n)
	}
}

// TestOversizeRequestSurfacesError pins the serveConn fix: a request frame
// over the server's limit used to kill the connection silently (the client
// only ever saw "netpeer: connection closed"). Now the oversized frame is
// read and dropped, the server answers with an in-band error and a
// diagnostic, and the connection stays usable — whether the frame's rows
// pass the limit or its envelope does.
func TestOversizeRequestSurfacesError(t *testing.T) {
	data := rel.NewInstance()
	data.MustAdd("S.r", "v")
	srv := NewServer(data)
	srv.maxRequestBytes = 4 * 1024
	var logged recordingHandler
	srv.Logger = slog.New(&logged)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One bind row of ~8KB blows the 4KB request cap.
	a, err := parser.ParseQuery(`q(x, y) :- S.r(x, y)`)
	if err != nil {
		t.Fatal(err)
	}
	oversized := []func() error{
		func() error {
			return c.bindFrames(a.Body[0], []int{0}, [][]string{{strings.Repeat("k", 8*1024)}}, nil, func([][]string) error { return nil }, nil)
		},
		// An envelope over the limit: its pred alone is ~8KB.
		func() error { _, err := c.Scan(strings.Repeat("p", 8*1024)); return err },
	}
	for i, send := range oversized {
		if err := send(); err == nil || !strings.Contains(err.Error(), "request frame exceeds") {
			t.Fatalf("oversized request %d: err = %v, want in-band 'request frame exceeds' error", i, err)
		}
		if c.Broken() {
			t.Fatal("well-framed in-band error must not break the connection")
		}
		// The same connection keeps working.
		preds, err := c.CatalogStats()
		if err != nil || len(preds) != 1 {
			t.Fatalf("connection unusable after oversize request %d: %v (%v)", i, preds, err)
		}
	}
	if n := srv.readErrors.Load(); n != 2 {
		t.Fatalf("server.read_errors = %d, want 2", n)
	}
	if msgs := logged.messages(); len(msgs) != 2 || !strings.Contains(msgs[0], "request frame over") || !strings.Contains(msgs[1], "request frame over") {
		t.Fatalf("server diagnostics missing: %q", msgs)
	}
}

// recordingHandler is a slog.Handler keeping the message of every record
// (the server logs from connection goroutines, hence the lock).
type recordingHandler struct {
	mu   sync.Mutex
	msgs []string
}

func (h *recordingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *recordingHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *recordingHandler) WithGroup(string) slog.Handler            { return h }
func (h *recordingHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.msgs = append(h.msgs, r.Message)
	return nil
}

func (h *recordingHandler) messages() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.msgs...)
}

// TestOversizeResponseBreaksClientCleanly: a response frame over the
// client's limit cannot be trusted (the lost frame may have been the final
// marker), so the client surfaces an error and marks the connection
// broken instead of silently desyncing. That holds for a frame that
// arrives over the limit and for one only announced over it; the block
// fails before any of it is read or allocated.
func TestOversizeResponseBreaksClientCleanly(t *testing.T) {
	addr := startStub(t, [][]stubAction{
		{{reply: string(encodeFrame(wire.Response{Rows: [][]string{{strings.Repeat("z", 64*1024)}}}))}},
		{{reply: string(binary.AppendUvarint([]byte{wire.Version}, wire.DefaultMaxFrame+1))}},
	}, evalGoodRespond)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.maxFrame = 16 * 1024
	if _, err := c.CatalogStats(); err == nil {
		t.Fatal("oversize response frame did not surface an error")
	}
	if !c.Broken() {
		t.Fatal("client must be broken after an oversize response frame")
	}

	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = c2.Scan("X.r")
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("row block over the frame limit gave %v", err)
	}
	if !c2.Broken() {
		t.Fatal("client must be broken after an oversize row block")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing a %d-byte row block allocated %d bytes", wire.DefaultMaxFrame, grew)
	}
}

// TestAdaptiveFullFetchWhenRemoteSmaller: when the partial join fans out
// past a later atom's advertised cardinality, shipping the bound keys
// loses — the executor must fetch that selection-pushed relation outright
// instead. (With two atoms the planner already orders the smaller relation
// first, so the switch genuinely needs join fan-out: here A ⋈ B binds 150
// distinct z values while C holds only 40 rows.)
func TestAdaptiveFullFetchWhenRemoteSmaller(t *testing.T) {
	peerA := map[string][]rel.Tuple{"A.small": nil}
	peerB := map[string][]rel.Tuple{"B.mid": nil}
	peerC := map[string][]rel.Tuple{"C.late": nil}
	oracle := rel.NewInstance()
	add := func(m map[string][]rel.Tuple, pred string, tu rel.Tuple) {
		m[pred] = append(m[pred], tu)
		oracle.MustAdd(pred, tu...)
	}
	for i := 0; i < 15; i++ {
		add(peerA, "A.small", rel.Tuple{fmt.Sprintf("a%d", i), fmt.Sprintf("y%d", i)})
		for j := 0; j < 10; j++ {
			add(peerB, "B.mid", rel.Tuple{fmt.Sprintf("y%d", i), fmt.Sprintf("z%d", i*10+j)})
		}
	}
	for k := 0; k < 40; k++ {
		add(peerC, "C.late", rel.Tuple{fmt.Sprintf("z%d", k), fmt.Sprintf("w%d", k)})
	}
	ex := NewExecutor()
	defer ex.Close()
	for _, m := range []map[string][]rel.Tuple{peerA, peerB, peerC} {
		if err := ex.Discover(startServer(t, m)); err != nil {
			t.Fatal(err)
		}
	}
	// Order by cardinality: A.small (15), then B.mid (150, 15 bound keys →
	// bind), then C.late (40 < 150 bound z values → adaptive full fetch).
	q, err := parser.ParseQuery(`q(x, z, w) :- A.small(x, y), B.mid(y, z), C.late(z, w)`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.New(oracle).EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 40 {
		t.Fatalf("oracle rows = %d, want 40", len(want))
	}
	got, err := ex.EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if !tuplesEqual(got, want) {
		t.Fatalf("adaptive path diverges: got %d rows, want %d", len(got), len(want))
	}
	if n := ex.counters.bindBatches.Load(); n != 1 {
		t.Fatalf("wire.bind_batches = %d, want exactly 1 (B.mid bind; C.late must full-fetch)", n)
	}
	// 15 A.small + 150 B.mid bind results + all 40 C.late rows.
	if n := ex.counters.rowsFetched.Load(); n != 15+150+40 {
		t.Fatalf("wire.rows_fetched = %d, want %d", n, 15+150+40)
	}
}

// TestMultiBatchBind: a bound side spanning several bind batches ships
// them one request after another and answers exactly. A warm repeat sends
// the cached generation with the first batch only, and the peer's
// unchanged answer ends the call: one request, zero rows.
func TestMultiBatchBind(t *testing.T) {
	const (
		keys    = 3000 // 3 batches of bindBatchSize=1024
		bigRows = 9000
	)
	small := map[string][]rel.Tuple{"C.keys": nil}
	large := map[string][]rel.Tuple{"D.rows": nil}
	oracle := rel.NewInstance()
	for i := 0; i < keys; i++ {
		tu := rel.Tuple{fmt.Sprintf("k%d", i)}
		small["C.keys"] = append(small["C.keys"], tu)
		oracle.MustAdd("C.keys", tu...)
	}
	for i := 0; i < bigRows; i++ {
		tu := rel.Tuple{fmt.Sprintf("k%d", i%4500), fmt.Sprintf("p%d", i)}
		large["D.rows"] = append(large["D.rows"], tu)
		oracle.MustAdd("D.rows", tu...)
	}
	addr1 := startServer(t, small)
	srv, addr2 := startServerH(t, large)
	q, err := parser.ParseQuery(`q(x, y) :- C.keys(x), D.rows(x, y)`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.New(oracle).EvalCQ(q)
	if err != nil {
		t.Fatal(err)
	}

	ex := NewExecutor()
	defer ex.Close()
	for _, a := range []string{addr1, addr2} {
		if err := ex.Discover(a); err != nil {
			t.Fatal(err)
		}
	}
	// Every request the D.rows peer sees is a bind batch: 3 cold, and warm
	// only the first, answered unchanged.
	for _, run := range []struct {
		name    string
		batches uint64
	}{
		{"cold", 3},
		{"warm", 1},
	} {
		requests := srv.requests.Load()
		batches, rows := ex.counters.bindBatches.Load(), ex.counters.rowsFetched.Load()
		got, err := ex.EvalCQ(q)
		if err != nil {
			t.Fatal(err)
		}
		if !tuplesEqual(got, want) {
			t.Fatalf("%s: answers diverge (%d rows vs %d)", run.name, len(got), len(want))
		}
		if d := srv.requests.Load() - requests; d != run.batches {
			t.Fatalf("%s: D.rows peer saw %d requests, want %d", run.name, d, run.batches)
		}
		if d := ex.counters.bindBatches.Load() - batches; d != run.batches {
			t.Fatalf("%s: %d bind batches, want %d", run.name, d, run.batches)
		}
		if d := ex.counters.rowsFetched.Load() - rows; run.name == "warm" && d != 0 {
			t.Fatalf("warm repeat fetched %d rows, want 0", d)
		}
	}
}

// TestSlowClientCannotWedgeServer: response streams run under the
// server's read lock, so a client that requests a large scan and then
// stops reading used to be able to block a queued writer — and with it
// every other connection — indefinitely. The per-frame write deadline
// must convert that into a dropped connection: AddFact completes and
// other clients keep working.
func TestSlowClientCannotWedgeServer(t *testing.T) {
	data := rel.NewInstance()
	pad := strings.Repeat("w", 8*1024)
	for i := 0; i < 1000; i++ { // ~8MB, far past any socket buffering
		data.MustAdd("W.big", fmt.Sprintf("k%d", i), pad)
	}
	srv := NewServer(data)
	srv.writeTimeout = 200 * time.Millisecond
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A raw connection that requests the scan and never reads a byte.
	stall, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	if _, err := stall.Write(wire.AppendRequest(nil, &wire.Request{Op: "scan", Pred: "W.big"})); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the server fill the socket buffers

	done := make(chan error, 1)
	go func() { done <- srv.AddFact("W.big", rel.Tuple{"new", "row"}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AddFact wedged behind a stalled response stream")
	}
	// Fresh clients must be unaffected.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if preds, err := c.CatalogStats(); err != nil || len(preds) != 1 {
		t.Fatalf("catalog after stalled peer: %v (%v)", preds, err)
	}
}

// bindBatchStarts must cut batches by row count and by accumulated value
// bytes, so no request frame approaches the server's cap even when key
// values are individually large.
func TestBindBatchStartsByteBound(t *testing.T) {
	big := strings.Repeat("v", bindBatchMaxBytes/2+1)
	rows := [][]string{{big}, {big}, {big}, {"tiny"}}
	starts := bindBatchStarts(rows)
	if len(starts) != 3 || starts[0] != 0 || starts[1] != 1 || starts[2] != 2 {
		t.Fatalf("starts = %v, want [0 1 2] (one oversize row per batch, tiny rides along)", starts)
	}
	small := make([][]string, 2*bindBatchSize+1)
	for i := range small {
		small[i] = []string{"k"}
	}
	if starts := bindBatchStarts(small); len(starts) != 3 {
		t.Fatalf("row-count cut: %d batches, want 3", len(starts))
	}
}

// TestCardinalityRefreshFromResponses: estimates seeded at Discover time
// must be refreshed by the cardinalities piggybacked on later responses,
// without waiting for a re-Discover.
func TestCardinalityRefreshFromResponses(t *testing.T) {
	data := rel.NewInstance()
	data.MustAdd("E.r", "a", "1")
	data.MustAdd("E.r", "b", "2")
	srv := NewServer(data)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ex := NewExecutor()
	defer ex.Close()
	if err := ex.Discover(addr); err != nil {
		t.Fatal(err)
	}
	if n, ok := ex.cardOf("E.r"); !ok || n != 2 {
		t.Fatalf("discovered card = %d (%v), want 2", n, ok)
	}
	for i := 0; i < 7; i++ {
		if err := srv.AddFact("E.r", rel.Tuple{fmt.Sprintf("x%d", i), "9"}); err != nil {
			t.Fatal(err)
		}
	}
	q, err := parser.ParseQuery(`q(x) :- E.r(x, y)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.EvalCQ(q); err != nil {
		t.Fatal(err)
	}
	if n, _ := ex.cardOf("E.r"); n != 9 {
		t.Fatalf("card after piggybacked refresh = %d, want 9", n)
	}
}
