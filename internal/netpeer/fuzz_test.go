package netpeer

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// fuzzAddr satisfies net.Addr for the in-memory fuzz connection.
type fuzzAddr struct{}

func (fuzzAddr) Network() string { return "fuzz" }
func (fuzzAddr) String() string  { return "fuzz:0" }

// fuzzConn is a net.Conn whose read side replays a fixed byte stream —
// the response bytes a (possibly hostile) peer server sent us. Writes
// vanish and deadlines are no-ops.
type fuzzConn struct{ r *bytes.Reader }

func (c *fuzzConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *fuzzConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *fuzzConn) Close() error                     { return nil }
func (c *fuzzConn) LocalAddr() net.Addr              { return fuzzAddr{} }
func (c *fuzzConn) RemoteAddr() net.Addr             { return fuzzAddr{} }
func (c *fuzzConn) SetDeadline(time.Time) error      { return nil }
func (c *fuzzConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fuzzConn) SetWriteDeadline(time.Time) error { return nil }

// fuzzClient wraps data in a Client the way Dial would, with a small
// frame cap so oversize handling is reachable from short inputs.
func fuzzClient(data []byte) *Client {
	conn := &fuzzConn{r: bytes.NewReader(data)}
	return &Client{conn: conn, br: bufio.NewReaderSize(conn, 4096), maxFrame: 1 << 16, counters: &Counters{}}
}

// FuzzResponseStream feeds arbitrary bytes to the client-side response
// stream consumer — the frame loop, final-marker handling, rows callback,
// and the cardinality/generation/span piggyback paths — and checks its
// invariants: no panic, rows handed to onRows exactly match the fetched
// counter, remote error frames leave the connection usable while
// transport-level failures mark it broken, a clean return is always a
// final frame, and an unchanged final frame leaves the connection usable
// and delivers no rows, and a version 1 frame, an over-cap or short row
// block all mark the connection broken.
func FuzzResponseStream(f *testing.F) {
	seed := func(frames ...wire.Response) []byte {
		var buf []byte
		for _, fr := range frames {
			buf = append(buf, encodeFrame(fr)...)
		}
		return buf
	}
	f.Add(seed(wire.Response{}))
	f.Add(seed(
		wire.Response{Rows: [][]string{{"a", "b"}}, More: true},
		wire.Response{Preds: []string{"p"}, Cards: []int{3}, Gens: []uint64{7}},
	))
	f.Add(seed(wire.Response{Error: "boom"}))
	f.Add(seed(wire.Response{Spans: []obs.SpanData{{ID: 1, Name: "eval"}, {ID: 2, Parent: 1, Name: "scan"}}}))
	f.Add(seed(wire.Response{Unchanged: true, Preds: []string{"p"}, Cards: []int{3}, Gens: []uint64{7}}))
	f.Add(seed(wire.Response{Unchanged: true, Rows: [][]string{{"stray"}}, Preds: []string{"p"}, Gens: []uint64{0}}))
	f.Add(seed(
		wire.Response{Rows: [][]string{{"a"}}, More: true},
		wire.Response{Unchanged: true, Preds: []string{"p"}, Gens: []uint64{7}},
	))
	f.Add([]byte("not json\n"))
	f.Add([]byte(`{"more":true}`))                                                               // truncated: no final frame
	f.Add(seed(wire.Response{Rows: [][]string{{strings.Repeat("x", 1<<16)}}}))                   // over the fuzz frame cap
	f.Add([]byte("{\"rowBytes\":65537}\n"))                                                      // a block announced above the cap
	f.Add(bytes.TrimSuffix(seed(wire.Response{Rows: [][]string{{"abc", "def"}}}), []byte("ef"))) // a block cut mid-value
	f.Add([]byte(`{"rows":[["a"]],"more":true}` + "\n" + `{"preds":["p"]}` + "\n"))              // a version 1 rows frame
	f.Add(seed(wire.Response{Rows: [][]string{{"\xff\xfe", "\n\"<&>\x00\u2028", ""}, {}}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, abandon := range []int{-1, 1} {
			c := fuzzClient(data)
			tracer := obs.NewTracer(4)
			c.TraceOn(tracer.ForceTrace("fuzz"))
			var got int
			frames := 0
			onRows := func(rows [][]string) error {
				got += len(rows)
				frames++
				if abandon > 0 && frames >= abandon {
					return errAbandon
				}
				return nil
			}
			resp, err := c.readStream(onRows)
			if err == nil {
				if resp.More {
					t.Fatalf("clean return with More set: %+v", resp)
				}
				if c.Broken() {
					t.Fatal("clean return but client marked broken")
				}
				// An unchanged final frame delivers none of its rows.
				if fetched := c.counters.rowsFetched.Load(); resp.Unchanged && uint64(got+len(resp.Rows)) > fetched {
					t.Fatalf("unchanged frame delivered rows: onRows saw %d, %d fetched, %d in the final frame", got, fetched, len(resp.Rows))
				}
			} else if strings.HasPrefix(err.Error(), "netpeer: remote:") {
				// A remote error frame is well-framed: connection usable.
				if c.Broken() {
					t.Fatalf("remote error marked connection broken: %v", err)
				}
			} else if err != errAbandon && !c.Broken() {
				t.Fatalf("transport error %v left client unbroken", err)
			}
			if want := c.counters.rowsFetched.Load(); uint64(got) > want {
				t.Fatalf("onRows saw %d rows, counters recorded %d", got, want)
			}
			if max := c.counters.maxFrame.Load(); max > int64(c.maxFrame) {
				t.Fatalf("recorded frame of %d bytes above the %d cap", max, c.maxFrame)
			}
		}
	})
}

// errAbandon is the onRows error injected by the fuzz harness.
var errAbandon = errAbandonType{}

type errAbandonType struct{}

func (errAbandonType) Error() string { return "fuzz: abandon stream" }
