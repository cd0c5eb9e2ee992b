package netpeer

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/wire"
)

// Client is a connection to one peer server. A Client is not safe for
// concurrent use: the Executor multiplexes concurrent work over a
// per-address pool of Clients, borrowing one per in-flight request.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	// out is the buffer each request is encoded into, reused across
	// requests like frame.
	out []byte
	// frame is the buffer each response frame — envelope and row block —
	// is read into, reused across frames (dropped by recycle after an
	// oversized one); decoded responses never alias it.
	frame []byte
	// maxFrame caps one received response frame, envelope and row block
	// together (wire.DefaultMaxFrame); chunked streaming keeps real frames
	// around wire.ChunkMaxBytes.
	maxFrame int
	// counters, when non-nil, aggregates this client's traffic (set by the
	// executor's pool so all pooled connections share one Counters).
	counters *Counters
	// onMeta, when non-nil, receives the cardinalities piggybacked on final
	// response frames (set by the executor's pool so estimates refresh
	// continuously).
	onMeta func(preds []string, cards []int)
	// tapMeta, when non-nil, receives the same final frames for the
	// duration of one logical call — the executor installs it around a
	// fragment fetch to learn the generation its own response frames
	// reported and whether the peer answered unchanged.
	tapMeta func(final *wire.Response)
	// ifGen, when non-nil, makes the next fragment fetch conditional on a
	// cached copy at that generation: EvalStream sends it, BindEvalStream
	// sends it with its first batch. Installed for one logical call, like
	// tapMeta.
	ifGen *uint64
	// traceSpan, when non-nil, marks requests on this client as traced:
	// each request carries the span's trace ID and span ID, and the spans
	// shipped back on final frames are adopted under it, labeled with the
	// peer address. Installed by the borrower for one logical call; like
	// the Client itself it is not safe for concurrent use.
	traceSpan *obs.Span
	// broken is set when a transport-level failure leaves the stream
	// desynced (request written but response unread, a partial/garbled
	// frame consumed, or a response stream abandoned mid-flight): reusing
	// the connection could pair a later request with a stale frame, so the
	// pool drops broken clients.
	broken bool
}

// ErrBusy marks a shed request: the server's admission gate refused to
// start it (in-flight limit reached, wait queue full or wait bound
// exceeded). The request did no work, the connection stays usable, and a
// retry after a jittered backoff is safe for any op (the executor's pool
// does this automatically). Test with errors.Is.
var ErrBusy = errors.New("netpeer: server busy")

// maxKeptFrameBytes caps the frame buffers a connection keeps between
// frames (each side's request and response buffers): a buffer that a frame
// grew past it is dropped, so a frame near wire.DefaultMaxFrame does not
// stay pinned for the life of a pooled connection.
const maxKeptFrameBytes = 2 * wire.ChunkMaxBytes

// recycle empties buf for the next frame, or drops it once a frame grew it
// past maxKeptFrameBytes.
func recycle(buf []byte) []byte {
	if cap(buf) > maxKeptFrameBytes {
		return nil
	}
	return buf[:0]
}

// Dial connects to a peer server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, br: bufio.NewReaderSize(conn, 64*1024), maxFrame: wire.DefaultMaxFrame}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Broken reports whether a transport-level failure has desynced the
// connection; a broken client must not be reused.
func (c *Client) Broken() bool { return c.broken }

// TraceOn installs sp as the client's trace context: subsequent requests
// carry its trace and span IDs, and remote spans shipped back on final
// frames are adopted under it. A nil sp turns tracing off. Returns c for
// chaining.
func (c *Client) TraceOn(sp *obs.Span) *Client {
	c.traceSpan = sp
	return c
}

// readStream consumes one response stream: zero or more non-final frames
// and a final one. onRows (when non-nil) receives each frame's rows as
// they arrive; an onRows error abandons the stream (unread frames desync
// the connection, so it is closed and marked broken). A remote error frame
// is terminal but well-framed: the connection stays usable. An unchanged
// final frame delivers no rows, even if a broken peer put some in it.
func (c *Client) readStream(onRows func([][]string) error) (wire.Response, error) {
	for {
		var resp wire.Response
		var err error
		c.frame, err = wire.ReadResponse(c.br, c.frame, c.maxFrame, &resp)
		n := len(c.frame)
		c.frame = recycle(c.frame)
		if err != nil {
			// Includes an oversized frame, a short or garbled row block and
			// a version 1 frame: the logical response stream is now missing
			// a frame (possibly the final marker) or is out of step, so the
			// connection cannot be trusted.
			c.broken = true
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return wire.Response{}, fmt.Errorf("netpeer: connection closed")
			}
			return wire.Response{}, err
		}
		if c.counters != nil {
			c.counters.bytesRecv.Add(uint64(n) + 1)
			c.counters.maxFrame.Max(int64(n))
		}
		if resp.Error != "" {
			// A remote error frame is final and well-framed: the stream
			// stays in sync and the connection remains usable. A busy frame
			// additionally wraps ErrBusy so pool users can retry with
			// backoff (the request was never started on the server).
			if resp.Busy {
				return wire.Response{}, fmt.Errorf("%w: %s", ErrBusy, resp.Error)
			}
			return wire.Response{}, fmt.Errorf("netpeer: remote: %s", resp.Error)
		}
		if c.counters != nil {
			c.counters.rowsFetched.Add(uint64(len(resp.Rows)))
		}
		if onRows != nil && len(resp.Rows) > 0 && !resp.Unchanged {
			if err := onRows(resp.Rows); err != nil {
				c.broken = true
				c.conn.Close()
				return wire.Response{}, err
			}
		}
		if !resp.More {
			if len(resp.Preds) > 0 {
				if c.onMeta != nil {
					c.onMeta(resp.Preds, resp.Cards)
				}
				if c.tapMeta != nil {
					c.tapMeta(&resp)
				}
			}
			if c.traceSpan != nil && len(resp.Spans) > 0 {
				c.traceSpan.AdoptRemote(c.conn.RemoteAddr().String(), resp.Spans)
			}
			return resp, nil
		}
	}
}

// roundTrip writes one request, encoded into c.out and sent in one
// counted Write, and consumes its response stream, handing each frame's
// rows to onRows (nil drops them: the op returns none).
func (c *Client) roundTrip(req wire.Request, onRows func([][]string) error) (wire.Response, error) {
	if c.counters != nil {
		c.counters.requests.Add(1)
	}
	req.V = wire.Version
	if c.traceSpan != nil {
		req.Trace = c.traceSpan.TraceID()
		req.Span = c.traceSpan.ID()
	}
	c.out = wire.AppendRequest(c.out, &req)
	n, err := c.conn.Write(c.out)
	c.out = recycle(c.out)
	if c.counters != nil {
		c.counters.bytesSent.Add(uint64(n))
	}
	if err != nil {
		c.broken = true
		return wire.Response{}, err
	}
	return c.readStream(onRows)
}

// rowFrames collects a response stream's rows frame by frame, kept as the
// decoder made them, to be gathered once the stream ends.
type rowFrames struct {
	frames [][][]string
	n      int
}

func (f *rowFrames) add(rows [][]string) {
	f.frames = append(f.frames, rows)
	f.n += len(rows)
}

// tuples gathers the collected rows, in stream order, into one slice of
// exactly their number.
func (f *rowFrames) tuples() []rel.Tuple {
	out := make([]rel.Tuple, 0, f.n)
	for _, rows := range f.frames {
		for _, r := range rows {
			out = append(out, r)
		}
	}
	return out
}

// fetch runs req and returns every row of its response stream, in stream
// order (rowFrames).
func (c *Client) fetch(req wire.Request) ([]rel.Tuple, error) {
	var got rowFrames
	_, err := c.roundTrip(req, func(rows [][]string) error {
		got.add(rows)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return got.tuples(), nil
}

// rowsToYield adapts a per-tuple yield to readStream's per-frame callback.
func rowsToYield(yield func(rel.Tuple) error) func([][]string) error {
	return func(rows [][]string) error {
		for _, r := range rows {
			if err := yield(rel.Tuple(r)); err != nil {
				return err
			}
		}
		return nil
	}
}

// CatalogStats lists the relations the peer serves together with their
// current cardinalities (estimates for join ordering; they may go stale
// without affecting correctness).
func (c *Client) CatalogStats() (map[string]int, error) {
	resp, err := c.roundTrip(wire.Request{Op: "catalog"}, nil)
	if err != nil {
		return nil, err
	}
	cards := make(map[string]int, len(resp.Preds))
	for i, p := range resp.Preds {
		if i < len(resp.Cards) {
			cards[p] = resp.Cards[i]
		} else {
			cards[p] = 0
		}
	}
	return cards, nil
}

// Ping performs a no-op round trip, verifying the connection and the peer
// are alive.
func (c *Client) Ping() error {
	_, err := c.roundTrip(wire.Request{Op: "ping"}, nil)
	return err
}

// Add inserts a batch of rows into one relation on the peer (the
// protocol's single mutating op). The returned generation is the
// relation's version read after the batch's last insert landed — at
// least as new as this write, possibly newer under concurrent writers.
// Set semantics make the op idempotent (re-inserting an existing tuple
// is a no-op), so retrying after an ambiguous failure is safe; a busy
// error (errors.Is(err, ErrBusy)) additionally means the batch was
// never started.
func (c *Client) Add(pred string, rows [][]string) (gen uint64, err error) {
	resp, err := c.roundTrip(wire.Request{Op: "add", Pred: pred, Rows: rows}, nil)
	if err != nil {
		return 0, err
	}
	if len(resp.Gens) > 0 {
		gen = resp.Gens[0]
	}
	return gen, nil
}

// Scan fetches all tuples of one relation.
func (c *Client) Scan(pred string) ([]rel.Tuple, error) {
	return c.fetch(wire.Request{Op: "scan", Pred: pred})
}

// ScanStream streams one relation's tuples through yield as response
// frames arrive, without materializing the result. A yield that stalls
// stalls the read loop — and, once the socket buffers fill, the serving
// peer's response stream: a slow consumer pushes back on its server.
func (c *Client) ScanStream(pred string, yield func(rel.Tuple) error) error {
	_, err := c.roundTrip(wire.Request{Op: "scan", Pred: pred}, rowsToYield(yield))
	return err
}

// EvalStream evaluates a conjunctive query remotely — every body atom must
// name a relation the peer serves — invoking yield once per distinct head
// tuple as chunks arrive, in stream (not sorted) order.
func (c *Client) EvalStream(q lang.CQ, yield func(rel.Tuple) error) error {
	return c.evalFrames(q, rowsToYield(yield))
}

// evalFrames is EvalStream handing onRows each frame's rows as they arrive.
func (c *Client) evalFrames(q lang.CQ, onRows func([][]string) error) error {
	_, err := c.roundTrip(wire.Request{Op: "eval", Query: &q, IfGen: c.ifGen}, onRows)
	return err
}

// Eval is EvalStream materialized: the distinct head tuples in rel.Compare
// order, sorted in place in the one slice fetch gathers them into.
func (c *Client) Eval(q lang.CQ) ([]rel.Tuple, error) {
	ts, err := c.fetch(wire.Request{Op: "eval", Query: &q})
	if err != nil {
		return nil, err
	}
	return rel.SortDistinct(ts), nil
}

// bindBatchSize and bindBatchMaxBytes cap the bound-key rows shipped per
// bind request frame — by count and by total value bytes — so a huge
// bound side (or individually huge key values) never produces a request
// frame near the server's limit.
const (
	bindBatchSize     = 1024
	bindBatchMaxBytes = 4 << 20
)

// bindBatchStarts cuts rows into request batches: a new batch starts at
// bindBatchSize rows or once the accumulated key bytes pass
// bindBatchMaxBytes (a single oversized row still ships alone).
func bindBatchStarts(rows [][]string) []int {
	starts := []int{0}
	rowsIn, bytesIn := 0, 0
	for i, row := range rows {
		sz := 0
		for _, v := range row {
			sz += len(v)
		}
		if rowsIn > 0 && (rowsIn >= bindBatchSize || bytesIn+sz > bindBatchMaxBytes) {
			starts = append(starts, i)
			rowsIn, bytesIn = 0, 0
		}
		rowsIn++
		bytesIn += sz
	}
	return starts
}

// BindEvalStream fetches the tuples of atom a that match the atom's
// constants and, at the bindCols positions, at least one of the bound-key
// rows, invoking yield as chunks arrive. Keys ship in row- and
// byte-bounded batches, one request after another. A conditional call
// (the borrower installed ifGen) sends the generation with the first batch
// only: an unchanged answer ends the call, so the remaining batches are
// never sent. The stream may contain duplicates across batches — callers
// deduplicate.
func (c *Client) BindEvalStream(a lang.Atom, bindCols []int, rows [][]string, yield func(rel.Tuple) error) error {
	return c.bindFrames(a, bindCols, rows, rowsToYield(yield))
}

// bindFrames is BindEvalStream handing onRows each frame's rows as they
// arrive.
func (c *Client) bindFrames(a lang.Atom, bindCols []int, rows [][]string, onRows func([][]string) error) error {
	if len(rows) == 0 {
		return nil
	}
	starts := bindBatchStarts(rows)
	// Each batch gets its own trace span, installed as the adoption target
	// of the serving peer's spans while the batch's response streams back.
	parent := c.traceSpan
	defer func() { c.traceSpan = parent }()
	ifGen := c.ifGen
	for i, start := range starts {
		end := len(rows)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		bs := parent.Child("bind.batch", obs.Attr{K: "pred", V: a.Pred})
		bs.SetInt("batch", int64(i))
		bs.SetInt("keys", int64(end-start))
		c.traceSpan = bs
		if c.counters != nil {
			c.counters.bindBatches.Add(1)
		}
		final, err := c.roundTrip(wire.Request{
			Op:       "bind",
			Atom:     &a,
			BindCols: bindCols,
			Rows:     rows[start:end],
			IfGen:    ifGen,
		}, onRows)
		bs.End()
		if err != nil || final.Unchanged {
			return err
		}
		ifGen = nil
	}
	return nil
}
