// Package netpeer turns the PDMS into an actually distributed system: each
// peer runs a Server exposing its stored relations over a newline-delimited
// JSON/TCP protocol (package wire), and an Executor evaluates reformulated
// unions of conjunctive queries across the network.
//
// The protocol has seven ops (see package wire for the JSON envelopes and
// wire/PROTOCOL.md for the normative specification):
//
//   - "catalog": list the stored relations served by this peer together
//     with their current cardinalities and per-relation generations.
//   - "scan": return every tuple of one relation.
//   - "eval": evaluate a conjunctive query whose atoms all name relations
//     served by this peer; used for full push-down of single-peer
//     rewritings and for selection-pushed per-atom fetches.
//   - "bind": the semi-join half of bind-join execution. The request
//     carries one atom (constants pushed down as selections) plus a batch
//     of bound join-key rows for the atom's BindCols positions; the server
//     probes its indexed engine once per key (engine.ProbeByKeyBatchYield)
//     and returns the distinct matching tuples instead of a full scan.
//   - "gens": report the current generation (monotonic insert counter) and
//     cardinality of the named relations — the fragment cache's row-free
//     revalidation round trip.
//   - "ping": no-op liveness probe, used by the connection pools' idle
//     health checks.
//   - "add": insert a batch of tuples into one stored relation — the
//     mutation half of mixed read/write workloads, taking the same write
//     lock as Server.AddFact.
//
// The server practices admission control: with Server.MaxInflight set, at
// most that many requests execute concurrently across all connections, up
// to MaxQueue more wait in a FIFO queue bounded by QueueWait each, and
// everything beyond is *shed* with an in-band busy error frame (retryable;
// the executor's pools back off with jitter and retry). Each connection
// additionally decodes at most MaxPipeline requests ahead of the one being
// answered — beyond that it simply stops reading, so a client pipelining
// thousands of requests is held back by TCP flow control rather than
// buffering server memory. Graceful shutdown (Drain) stops accepting,
// lets queued and in-flight requests finish, then closes.
//
// Responses STREAM: a row-bearing op answers with bounded chunks
// (wire.ChunkMaxRows / wire.ChunkMaxBytes) followed by a final frame, so
// neither side ever frames a whole answer — results larger than any fixed
// frame ceiling flow through in O(chunk) memory. The server produces rows
// through the engine's enumeration hooks (engine.StreamCQ,
// engine.ProbeByKeyBatchYield) rather than materializing answers, and the
// final frame of every data response piggybacks the cardinalities and
// generations of the relations touched (captured before row production,
// so the generation is a floor: the stream carries at least everything at
// that generation — see wire/PROTOCOL.md): the executor folds the
// cardinalities into its join-order estimates and the generations into
// its fragment-cache staleness checks. An oversized or
// garbled *request* frame is answered with an in-band error (the stream
// stays framed), never a silent connection drop; genuinely broken streams
// are counted and reported through the optional Server.Logf diagnostic
// hook.
//
// Cross-peer rewritings execute as a streaming, adaptive, pipelined
// bind-join: the Executor orders atoms by the engine's selectivity
// heuristic and maintains the partial join incrementally, streaming each
// atom's remote rows directly into a hash join against the partial result.
// Per atom it ships the distinct join keys bound so far ("bind" op) in
// pipelined batches — batch i+1 is written while batch i's rows are still
// streaming back — unless the peer's advertised cardinality says the whole
// (selection-pushed) relation is smaller than the key set, in which case
// it fetches the relation instead. UCQ disjuncts fan out over a worker
// pool, multiplexed over per-address connection pools (one Client is not
// safe for concurrent use); pooled connections idle past
// Executor.IdlePingAfter are pinged before reuse so a peer restart is
// absorbed by a fresh dial instead of a first-request failure. Both sides
// keep wire-level counters (requests, rows, bytes, bind batches and how
// many were pipelined, health pings/drops) so the shipping and stall
// savings are measurable.
//
// On top of the wire path sits the executor's cross-query fragment cache —
// the distributed half of the system's two-level cache architecture (the
// local half is pdms.Network's generation-vector answer cache):
//
//   - Every fetched or probed fragment is cached under (peer address,
//     canonical atom pattern, bound-key-set hash) in an LRU bounded by
//     entries and bytes, stamped with the relation's generation reported
//     by the fetch's own response frames (a fetch whose frames disagree —
//     a mutation landed mid-fetch — is not cached).
//   - A cached fragment is served only after its generation is confirmed
//     current: by default via a "gens" round trip (strong consistency with
//     the peer at revalidation time, zero rows shipped), or for free when
//     the generation was observed within the Executor.FragmentTrust window
//     (zero traffic, staleness bounded by the window — the TTL fallback
//     for peers mutated outside our view).
//   - An AddFact on the serving peer moves only that relation's
//     generation, so fragments of other relations keep hitting.
//
// The paper treats query execution as out of scope ("recent techniques for
// adaptive query processing are well suited for our context"); this package
// supplies the minimal honest substrate so that the full pipeline — pose at
// a peer, reformulate, execute across peers — runs over real sockets.
package netpeer

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/store"
	"repro/internal/wire"
)

// defaultMaxRequestBytes caps one request frame. Legitimate requests are
// small — queries, scans, and byte-bounded bind batches — so anything near
// this is a bug or abuse, and it must stay far below wire.DefaultMaxFrame
// (the client-side response sanity cap) to bound per-connection buffering.
const defaultMaxRequestBytes = 64 << 20

// defaultWriteTimeout bounds one response-frame write. Responses stream
// under the server's read lock, so a client that stops reading would
// otherwise hold the lock (and, once a writer queues, every other
// connection) indefinitely; the deadline converts that into a dropped
// connection. A legitimate slow reader only has to drain one bounded
// chunk per timeout.
const defaultWriteTimeout = 60 * time.Second

// defaultQueueWait bounds one request's admission-queue wait when the
// server runs with MaxInflight set but no explicit QueueWait: long enough
// to ride out a burst, short enough that a queued client learns it is
// being shed instead of timing out blind.
const defaultQueueWait = time.Second

// defaultMaxPipeline is how many requests one connection may have decoded
// ahead of the one currently being answered. Past it the connection's read
// loop pauses, so a pipelining client is throttled by TCP flow control
// instead of server memory.
const defaultMaxPipeline = 8

// acceptBackoffMin and acceptBackoffMax bound the retry backoff of the
// accept loop after a temporary Accept failure (EMFILE under connection
// storms, ECONNABORTED, ...). The backoff doubles per consecutive failure
// and resets on success.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// Server serves one peer's stored relations. Eval requests run through a
// per-server indexed engine whose indexes and compiled plans persist across
// requests (and catch up incrementally with AddFact).
type Server struct {
	// Logf, when non-nil, receives server-side diagnostics for conditions
	// that cannot be answered in-band (broken request streams, read
	// failures). Set it before Start.
	Logf func(format string, args ...any)
	// Logger, when non-nil, receives the same diagnostics as structured
	// records (with peer and error attributes) and takes precedence over
	// Logf. Set it before Start.
	Logger *slog.Logger
	// Tracer, when non-nil, keeps the span trees of traced requests this
	// server has answered in its ring buffer — the serving-side
	// /debug/traces view. Untraced requests are never recorded.
	Tracer *obs.Tracer
	// MaxRequestBytes caps one request frame (0 = defaultMaxRequestBytes).
	// An over-limit frame is consumed through its newline and answered
	// with an in-band error response — the connection survives.
	MaxRequestBytes int
	// WriteTimeout bounds each response-frame write (0 =
	// defaultWriteTimeout, negative = no deadline). A client that stops
	// reading is disconnected after one timeout instead of pinning the
	// server's read lock.
	WriteTimeout time.Duration
	// MaxInflight caps requests executing concurrently across all
	// connections; requests beyond it wait in a bounded FIFO queue and are
	// shed with an in-band busy error once the queue is full or the wait
	// exceeds QueueWait. 0 disables admission control (every request is
	// admitted immediately). Set before Start.
	MaxInflight int
	// MaxQueue bounds the admission wait queue (0 = no queue: requests
	// beyond MaxInflight are shed immediately). Meaningful only with
	// MaxInflight > 0. Set before Start.
	MaxQueue int
	// QueueWait bounds one request's admission wait (0 = defaultQueueWait).
	// Set before Start.
	QueueWait time.Duration
	// MaxPipeline caps requests decoded ahead per connection while earlier
	// ones are still being answered (0 = defaultMaxPipeline). Once the
	// read-ahead buffer is full the connection stops reading — TCP flow
	// control, not server memory, absorbs an over-eager pipeliner. Set
	// before Start.
	MaxPipeline int

	// mu guards the lifecycle fields below (lis, cancel, adm) with brief
	// exclusive sections; data paths — streams and inserts alike — only
	// ever take the read side. Nothing data-bearing may take the write
	// lock: a stream holds RLock for its whole response, so one stalled
	// consumer plus one pending writer would convoy every later reader
	// behind this write-preferring RWMutex (see handleAdd). Read-side
	// inserts are safe because the instance itself self-synchronizes:
	// relation shards carry their own locks and rel.Instance serializes
	// first-use relation creation internally, so this RLock only pins the
	// instance pointer.
	mu   sync.RWMutex
	data *rel.Instance // guarded by mu (all access under RLock; instance self-synchronizes)
	// view is the storage-interface view of data the catalog/meta paths
	// read; same guard discipline as data.
	view store.Instance
	eng  *engine.Engine

	// reqHist times every admitted request (dequeue to final frame
	// written, admission wait included), exported as
	// server.request_seconds by RegisterMetrics.
	reqHist *obs.Histogram
	// queueWaitHist times successful admission-queue waits, exported as
	// server.queue_wait_seconds by RegisterMetrics.
	queueWaitHist *obs.Histogram
	// adm is the admission gate, built by ServeListener from MaxInflight/
	// MaxQueue/QueueWait (nil = admission off).
	adm *admission // guarded by mu (ServeListener publishes; read via gate)

	lis    net.Listener       // guarded by mu (Start publishes, Close consumes)
	cancel context.CancelFunc // guarded by mu
	wg     sync.WaitGroup

	// draining is set by Drain: the listener is gone, connections finish
	// the requests they have read (including pipelined read-ahead) and
	// unblocked idle reads exit cleanly instead of counting as errors.
	draining atomic.Bool
	connMu   sync.Mutex
	conns    map[net.Conn]struct{} // guarded by connMu (live connections, for Drain's read-deadline nudge)

	requests      atomic.Uint64
	rowsServed    atomic.Uint64
	bytesSent     atomic.Uint64
	bytesRecv     atomic.Uint64
	readErrors    atomic.Uint64
	acceptRetries atomic.Uint64
}

// ServerStats is a snapshot of a server's cumulative wire-level counters.
type ServerStats struct {
	// Requests counts protocol requests handled (including errors).
	Requests uint64
	// RowsServed counts tuples returned across all response frames.
	RowsServed uint64
	// BytesSent and BytesRecv count response and request bytes on the wire.
	BytesSent, BytesRecv uint64
	// ReadErrors counts request frames that could not be read cleanly
	// (over-limit or broken mid-line). Over-limit frames also get an
	// in-band error response; the rest tear down the connection with a
	// Logf diagnostic instead of dying silently.
	ReadErrors uint64
	// Shed counts requests refused with an in-band busy error by the
	// admission gate (queue full or queue-wait bound exceeded).
	Shed uint64
	// AcceptRetries counts temporary Accept failures the listen loop rode
	// out with backoff instead of terminating.
	AcceptRetries uint64
	// Inflight and Queued are instantaneous admission-gate readings:
	// requests currently executing and currently waiting for a slot.
	Inflight, Queued int
}

// gate returns the admission gate (nil while the server has not started
// or runs without admission control).
func (s *Server) gate() *admission {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.adm
}

// Stats returns a snapshot of the server's wire-level counters.
func (s *Server) Stats() ServerStats {
	adm := s.gate()
	inflight, queued := adm.load()
	return ServerStats{
		Requests:      s.requests.Load(),
		RowsServed:    s.rowsServed.Load(),
		BytesSent:     s.bytesSent.Load(),
		BytesRecv:     s.bytesRecv.Load(),
		ReadErrors:    s.readErrors.Load(),
		Shed:          adm.shed(),
		AcceptRetries: s.acceptRetries.Load(),
		Inflight:      inflight,
		Queued:        queued,
	}
}

// NewServer creates a server over the given instance (which the server
// reads under its own lock; use AddFact for concurrent-safe insertion).
func NewServer(data *rel.Instance) *Server {
	if data == nil {
		data = rel.NewInstance()
	}
	return &Server{
		data:          data,
		view:          store.InstanceOf(data),
		eng:           engine.New(data),
		reqHist:       obs.NewHistogram(),
		queueWaitHist: obs.NewHistogram(),
		conns:         map[net.Conn]struct{}{},
	}
}

// AddFact inserts a tuple into a served relation. Inserts self-synchronize
// inside the instance — at the shard level for tuples, under rel.Instance's
// own lock for first-use relation creation — so this never waits for (or
// convoys behind) an in-flight response stream; the read lock only pins
// the instance pointer.
func (s *Server) AddFact(pred string, t rel.Tuple) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, err := s.data.Add(pred, t)
	return err
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and serves
// until Close. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ServeListener(lis)
	return lis.Addr().String(), nil
}

// ServeListener serves the peer protocol on a caller-provided listener
// (tests inject fault-injecting listeners here; Start wraps it with a TCP
// listen). It returns immediately; Close or Drain stop it and close lis.
func (s *Server) ServeListener(lis net.Listener) {
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	s.lis = lis
	s.cancel = cancel
	if s.MaxInflight > 0 {
		s.adm = newAdmission(s.MaxInflight, s.MaxQueue, s.QueueWait, s.queueWaitHist)
	}
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ctx, lis)
}

// Close stops the listener, disconnects every client, and waits for the
// connection goroutines. In-flight requests are aborted (their connections
// close under them); use Drain first for a graceful stop. It is safe to
// call from a goroutine other than the one that called Start.
func (s *Server) Close() error {
	s.mu.Lock()
	lis, cancel := s.lis, s.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	var err error
	if lis != nil {
		if cerr := lis.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) {
			// Drain may already have closed the listener; that is not an
			// error of this Close.
			err = cerr
		}
	}
	s.wg.Wait()
	return err
}

// Drain shuts the server down gracefully: stop accepting new connections,
// let every request already read — executing, queued for admission, or
// decoded ahead in a connection's pipeline — finish, then close. Clients
// idle at a frame boundary are disconnected cleanly. Connections still
// busy after timeout are cut off by the final Close. Drain does not shed
// queued work: admission waiters are granted or shed by their own
// queue-wait bound as usual.
func (s *Server) Drain(timeout time.Duration) error {
	s.draining.Store(true)
	s.mu.Lock()
	lis := s.lis
	s.mu.Unlock()
	if lis != nil {
		lis.Close() // stop accepting; acceptLoop exits on net.ErrClosed
	}
	// Nudge idle readers out of their blocking read: buffered (pipelined)
	// requests still drain from the bufio layer, but a connection waiting
	// at a frame boundary sees a timeout, which the read loop treats as a
	// clean disconnect while draining.
	s.connMu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
	}
	return s.Close()
}

// trackConn registers a live connection for Drain's read-deadline nudge.
func (s *Server) trackConn(conn net.Conn, add bool) {
	s.connMu.Lock()
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
	s.connMu.Unlock()
}

func (s *Server) acceptLoop(ctx context.Context, lis net.Listener) {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := lis.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return // shut down
			}
			// A failed Accept is almost always transient — EMFILE during a
			// connection storm, ECONNABORTED, a momentary kernel refusal —
			// and returning here would silently take the whole peer down
			// (the original bug: one descriptor-exhaustion blip terminated
			// Serve). Retry with capped exponential backoff; genuine
			// listener death surfaces as net.ErrClosed above.
			if backoff == 0 {
				backoff = acceptBackoffMin
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			s.acceptRetries.Add(1)
			s.logw("netpeer: accept failed; retrying", "err", err, "backoff", backoff)
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.serveConn(ctx, conn)
		}()
	}
}

// serverConnWriter counts response bytes as they hit the socket.
type serverConnWriter struct {
	s    *Server
	conn net.Conn
}

func (w serverConnWriter) Write(p []byte) (int, error) {
	n, err := w.conn.Write(p)
	w.s.bytesSent.Add(uint64(n))
	return n, err
}

// connItem is one unit of per-connection work handed from the read loop to
// the handler: a decoded request, or an in-band error to answer in order.
type connItem struct {
	req wire.Request
	// errMsg, when non-empty, short-circuits handling: the handler answers
	// with this in-band error frame instead of dispatching req (over-limit
	// frames, undecodable JSON). The stream stays framed either way.
	errMsg string
}

func (s *Server) serveConn(ctx context.Context, conn net.Conn) {
	// Close the connection when the server shuts down so the reads below
	// unblock and Close's WaitGroup drains even with idle clients.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	s.trackConn(conn, true)
	defer s.trackConn(conn, false)
	bw := bufio.NewWriterSize(serverConnWriter{s: s, conn: conn}, 64*1024)
	enc := json.NewEncoder(bw)
	writeTimeout := s.WriteTimeout
	if writeTimeout == 0 {
		writeTimeout = defaultWriteTimeout
	}
	// send writes one response frame and flushes it to the socket, so the
	// client makes progress chunk by chunk. Each frame gets its own write
	// deadline: response streams run under the server's read lock, and a
	// client that stops draining must cost a dropped connection, not a
	// wedged lock. Only this (handler) goroutine calls send, so responses
	// stay in request order even with the read loop decoding ahead.
	send := func(resp wire.Response) error {
		if writeTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		}
		s.rowsServed.Add(uint64(len(resp.Rows)))
		if err := enc.Encode(resp); err != nil {
			return err
		}
		return bw.Flush()
	}

	// Pipelining split: a read loop decodes up to MaxPipeline requests
	// ahead while this goroutine answers them strictly in order. The
	// channel bound is the per-connection pipelining limit — when it fills,
	// the read loop stops reading and TCP flow control pushes back on the
	// client.
	depth := s.MaxPipeline
	if depth <= 0 {
		depth = defaultMaxPipeline
	}
	items := make(chan connItem, depth)
	// handlerDone unblocks a read loop stuck sending on items after the
	// handler bails out mid-queue (transport failure on a response write).
	handlerDone := make(chan struct{})
	defer close(handlerDone)
	go s.readRequests(conn, items, handlerDone)

	adm := s.gate()
	for it := range items {
		select {
		case <-ctx.Done():
			return
		default:
		}
		if it.errMsg != "" {
			if send(wire.Response{Error: it.errMsg}) != nil {
				return
			}
			continue
		}
		// Admission: acquire a global execution slot (or queue for one)
		// before any work happens. A shed request is answered with a
		// retryable in-band busy frame and costs the server nothing else.
		if err := adm.acquire(ctx); err != nil {
			if errors.Is(err, errShed) {
				if send(wire.Response{
					Error: fmt.Sprintf("server busy: %d in flight, %d queued", s.MaxInflight, s.MaxQueue),
					Busy:  true,
				}) != nil {
					return
				}
				continue
			}
			return // shutting down
		}
		reqStart := time.Now()
		err := s.handleStream(it.req, send)
		s.reqHist.Observe(time.Since(reqStart))
		adm.release()
		if err != nil {
			return
		}
	}
}

// readRequests is a connection's read loop: it decodes frames into items
// until EOF, a terminal read failure, or the handler's exit. In-band
// recoverable failures (over-limit frames, bad JSON) flow through the
// channel so the handler answers them in order.
func (s *Server) readRequests(conn net.Conn, items chan<- connItem, handlerDone <-chan struct{}) {
	defer close(items)
	br := bufio.NewReaderSize(conn, 64*1024)
	maxFrame := s.MaxRequestBytes
	if maxFrame <= 0 {
		maxFrame = defaultMaxRequestBytes
	}
	push := func(it connItem) bool {
		select {
		case items <- it:
			return true
		case <-handlerDone:
			return false
		}
	}
	for {
		frame, err := wire.ReadFrame(br, maxFrame)
		switch {
		case err == nil:
		case errors.Is(err, wire.ErrFrameTooLarge):
			// The oversized line was consumed through its newline, so the
			// stream is still framed: answer in-band instead of dropping
			// the connection (the old fixed-buffer scanner died here with
			// no diagnostic on either side).
			s.requests.Add(1)
			s.readErrors.Add(1)
			s.logw("netpeer: request frame over limit", "peer", conn.RemoteAddr(), "limit", maxFrame)
			if !push(connItem{errMsg: fmt.Sprintf("request frame exceeds %d bytes", maxFrame)}) {
				return
			}
			continue
		case errors.Is(err, io.EOF):
			return // clean disconnect at a frame boundary
		default:
			var ne net.Error
			if s.draining.Load() && errors.As(err, &ne) && ne.Timeout() {
				// Drain's read-deadline nudge: the client is idle at a
				// frame boundary (any buffered pipelined requests were
				// already decoded above); wind the connection down quietly.
				return
			}
			s.readErrors.Add(1)
			s.logw("netpeer: reading request", "peer", conn.RemoteAddr(), "err", err)
			return
		}
		s.requests.Add(1)
		s.bytesRecv.Add(uint64(len(frame) + 1))
		var req wire.Request
		if err := json.Unmarshal(frame, &req); err != nil {
			if !push(connItem{errMsg: fmt.Sprintf("bad request: %v", err)}) {
				return
			}
			continue
		}
		if !push(connItem{req: req}) {
			return
		}
	}
}

// chunker accumulates streamed rows and flushes them as bounded non-final
// frames, keeping per-response memory O(chunk) regardless of result size.
type chunker struct {
	send    func(wire.Response) error
	rows    [][]string
	bytes   int
	total   int         // rows streamed so far, across all frames
	spans   []wire.Span // trace spans for the final frame (traced requests only)
	sendErr error       // transport failure; terminal for the connection
}

// row buffers one tuple, flushing a non-final frame at the chunk bounds.
func (c *chunker) row(t rel.Tuple) error {
	c.rows = append(c.rows, t)
	c.total++
	for _, v := range t {
		c.bytes += len(v)
	}
	if len(c.rows) >= wire.ChunkMaxRows || c.bytes >= wire.ChunkMaxBytes {
		if err := c.send(wire.Response{Rows: c.rows, More: true}); err != nil {
			c.sendErr = err
			return err
		}
		c.rows, c.bytes = nil, 0
	}
	return nil
}

// finish emits the final frame: any buffered rows plus the piggybacked
// cardinalities, generations and per-column distinct estimates of the
// relations the request touched.
func (c *chunker) finish(preds []string, cards []int, gens []uint64, dists [][]float64) error {
	return c.send(wire.Response{Rows: c.rows, Preds: preds, Cards: cards, Gens: gens, Distinct: dists, Spans: c.spans})
}

// handleStream answers one request as a stream of frames through send. It
// returns the first transport error, or nil once the response — success or
// in-band error — is fully written. Row production runs under the read
// lock, but so do concurrent adds (shards self-synchronize): with
// append-only relations a stream observes a superset of the instance at
// its start and a subset of the instance at its end, the sound consistency
// contract for monotone conjunctive queries — and the one that keeps a
// stalled stream from convoying the rest of the server (see handleAdd).
func (s *Server) handleStream(req wire.Request, send func(wire.Response) error) error {
	// A traced request (req.Trace set) gets a detached server-side span
	// tree; exported finishes it and flattens it for the success final
	// frame, parented under the caller's span ID from the request. Error
	// responses ship no spans (error frames carry only "error"), and an
	// untraced request costs only the nil checks inside the span methods.
	// A configured Tracer whose sampling knob is 0 is the serving-side
	// kill switch: remote trace requests are ignored (tracing is
	// best-effort per the protocol, so callers just see no remote detail).
	var root *obs.Span
	if req.Trace != "" && (s.Tracer == nil || s.Tracer.SampleEvery() > 0) {
		root = obs.StartRemote("serve."+req.Op, obs.Attr{K: "trace", V: req.Trace})
	}
	exported := func() []wire.Span {
		if root == nil {
			return nil
		}
		root.End()
		s.Tracer.Record(root)
		return spansToWire(root.Export(req.Span))
	}
	if req.Op == "add" {
		// The one mutating op: it manages its own (read-side) locking, so
		// it branches off before the read lock the streaming ops hold for
		// their whole response.
		return s.handleAdd(req, send, exported)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	// metaOf assembles the piggyback payload for the touched relations:
	// cardinality (a join-order estimate) and generation (the fragment
	// cache's staleness token). Streaming ops capture it BEFORE row
	// production: with adds landing concurrently, a generation read after
	// the stream could include a tuple the stream already walked past (and
	// so missed), and a fragment tagged with it would claim completeness it
	// doesn't have. Captured up front, the tag is a floor — the append-only
	// logs guarantee the stream carries everything at or before it, and any
	// extra rows that land mid-stream are true tuples monotone queries
	// absorb.
	metaOf := func(preds ...string) ([]string, []int, []uint64, [][]float64) {
		cards := make([]int, len(preds))
		gens := make([]uint64, len(preds))
		dists := make([][]float64, len(preds))
		for i, p := range preds {
			if r := s.view.Relation(p); r != nil {
				cards[i] = r.Len()
				gens[i] = r.Version()
				// Per-column distinct estimates from the relation's HLL
				// column sketches — a join-ordering hint, like Cards.
				dists[i] = r.Stats().Distinct
			}
		}
		return preds, cards, gens, dists
	}
	switch req.Op {
	case "catalog":
		preds, cards, gens, dists := metaOf(s.view.Relations()...)
		return send(wire.Response{Preds: preds, Cards: cards, Gens: gens, Distinct: dists, Spans: exported()})
	case "gens":
		// The fragment-cache revalidation round trip: tiny and row-free.
		// Each generation read is individually current; callers compare
		// them per predicate against cached floors, so no cross-predicate
		// snapshot is needed. Deliberately no Distinct piggyback: the op
		// exists to be minimal, and column statistics ride on every other
		// response anyway.
		preds, cards, gens, _ := metaOf(req.Preds...)
		return send(wire.Response{Preds: preds, Cards: cards, Gens: gens, Spans: exported()})
	case "ping":
		// Liveness probe for pool health checks; deliberately touches no
		// relation state.
		return send(wire.Response{Spans: exported()})
	case "scan":
		// StreamScan walks the per-shard insert logs directly: no sort, no
		// sorted-view materialization, O(chunk) memory end to end. Row order
		// is per-shard insertion order (unspecified globally).
		preds, cards, gens, dists := metaOf(req.Pred)
		c := &chunker{send: send}
		ss := root.Child("scan", obs.Attr{K: "pred", V: req.Pred})
		err := s.eng.StreamScan(req.Pred, c.row)
		ss.SetErr(err)
		ss.SetInt("rows", int64(c.total))
		ss.End()
		if err != nil {
			if c.sendErr != nil {
				return c.sendErr
			}
			return send(wire.Response{Error: err.Error()})
		}
		c.spans = exported()
		return c.finish(preds, cards, gens, dists)
	case "eval":
		if req.Query == nil {
			return send(wire.Response{Error: "eval: missing query"})
		}
		q, err := req.Query.ToCQ()
		if err != nil {
			return send(wire.Response{Error: err.Error()})
		}
		seen := map[string]bool{}
		var bodyPreds []string
		for _, a := range q.Body {
			if !seen[a.Pred] {
				seen[a.Pred] = true
				bodyPreds = append(bodyPreds, a.Pred)
			}
		}
		preds, cards, gens, dists := metaOf(bodyPreds...)
		c := &chunker{send: send}
		es := root.Child("eval", obs.Attr{K: "head", V: q.Head.Pred})
		err = s.eng.StreamCQ(q, c.row)
		es.SetErr(err)
		es.SetInt("rows", int64(c.total))
		es.End()
		if err != nil {
			if c.sendErr != nil {
				return c.sendErr
			}
			// Evaluation failed mid-stream: the error frame is final and
			// supersedes any rows already shipped.
			return send(wire.Response{Error: err.Error()})
		}
		c.spans = exported()
		return c.finish(preds, cards, gens, dists)
	case "bind":
		pred, cols, keys, err := bindProbeArgs(req)
		if err != nil {
			return send(wire.Response{Error: err.Error()})
		}
		bindPreds, cards, gens, dists := metaOf(pred)
		c := &chunker{send: send}
		bs := root.Child("bind", obs.Attr{K: "pred", V: pred})
		bs.SetInt("keys", int64(len(keys)))
		err = s.eng.ProbeByKeyBatchYield(pred, cols, keys, c.row)
		bs.SetErr(err)
		bs.SetInt("rows", int64(c.total))
		bs.End()
		if err != nil {
			if c.sendErr != nil {
				return c.sendErr
			}
			return send(wire.Response{Error: err.Error()})
		}
		c.spans = exported()
		return c.finish(bindPreds, cards, gens, dists)
	default:
		return send(wire.Response{Error: fmt.Sprintf("unknown op %q", req.Op)})
	}
}

// handleAdd applies one add request: insert req.Rows into req.Pred (rows
// become visible individually as each shard-level insert lands — the batch
// is not an atomic unit of visibility), then answer with a single final
// frame whose piggyback metadata (cardinality, generation) is read after
// the last insert, so the client's fragment cache sees a generation at
// least as new as its own write. A failed row stops the batch; rows before
// it stay inserted (the in-band error reports how many landed).
//
// Inserts deliberately run under the read lock (tuple inserts synchronize
// at the shard level, and rel.Instance internally serializes the map write
// when a new predicate materializes a relation): an exclusive lock here
// would convoy the whole server behind any stalled response stream —
// streams hold the read lock end to end, so one slow consumer plus one
// pending writer would block every later reader on this write-preferring
// RWMutex for as long as the stall lasts (bounded only by WriteTimeout).
// Append-only relations keep concurrent streams sound: a stream observes a
// superset of its start-state and a subset of its end-state, which is
// exactly right for monotone conjunctive queries.
func (s *Server) handleAdd(req wire.Request, send func(wire.Response) error, exported func() []wire.Span) error {
	if req.Pred == "" {
		return send(wire.Response{Error: "add: missing pred"})
	}
	s.mu.RLock()
	var inserted int
	var addErr error
	for _, row := range req.Rows {
		if _, addErr = s.data.Add(req.Pred, rel.Tuple(row)); addErr != nil {
			break
		}
		inserted++
	}
	var cards []int
	var gens []uint64
	var dists [][]float64
	if r := s.view.Relation(req.Pred); r != nil {
		cards = []int{r.Len()}
		gens = []uint64{r.Version()}
		dists = [][]float64{r.Stats().Distinct}
	}
	s.mu.RUnlock()
	if addErr != nil {
		return send(wire.Response{Error: fmt.Sprintf("add: row %d of %d: %v", inserted, len(req.Rows), addErr)})
	}
	return send(wire.Response{Preds: []string{req.Pred}, Cards: cards, Gens: gens, Distinct: dists, Spans: exported()})
}

// bindProbeArgs validates one bind request and lowers it to a probe: the
// distinct tuples of the atom's relation matching the atom's constants
// plus, at the BindCols positions, any one of the shipped key rows. Probe
// columns are the constant positions merged with the bind positions, so
// the whole batch runs off one hash index. The result may be a superset of
// what the join needs (repeated variables inside the atom are re-checked
// by the caller's local join).
func bindProbeArgs(req wire.Request) (pred string, cols []int, keys [][]string, err error) {
	if req.Atom == nil {
		return "", nil, nil, fmt.Errorf("bind: missing atom")
	}
	a, err := req.Atom.ToAtom()
	if err != nil {
		return "", nil, nil, err
	}
	if len(req.BindCols) == 0 {
		return "", nil, nil, fmt.Errorf("bind: no bound columns for %s", a.Pred)
	}
	// keyCol pins one probe column to either the atom constant at that
	// position or a per-row bind value.
	type keyCol struct {
		col      int
		constVal string
		bindIdx  int // index into each bind row, or -1 for a constant
	}
	var kcs []keyCol
	for pos, t := range a.Args {
		if t.IsConst() {
			kcs = append(kcs, keyCol{col: pos, constVal: t.Name, bindIdx: -1})
		}
	}
	for i, c := range req.BindCols {
		if c < 0 || c >= a.Arity() {
			return "", nil, nil, fmt.Errorf("bind: column %d out of range for %s/%d", c, a.Pred, a.Arity())
		}
		if a.Args[c].IsConst() {
			return "", nil, nil, fmt.Errorf("bind: column %d of %s is a pushed constant", c, a.Pred)
		}
		kcs = append(kcs, keyCol{col: c, bindIdx: i})
	}
	sort.Slice(kcs, func(i, j int) bool { return kcs[i].col < kcs[j].col })
	for i := 1; i < len(kcs); i++ {
		if kcs[i].col == kcs[i-1].col {
			return "", nil, nil, fmt.Errorf("bind: duplicate column %d for %s", kcs[i].col, a.Pred)
		}
	}
	cols = make([]int, len(kcs))
	for i, kc := range kcs {
		cols[i] = kc.col
	}
	keys = make([][]string, 0, len(req.BindRows))
	for _, row := range req.BindRows {
		if len(row) != len(req.BindCols) {
			return "", nil, nil, fmt.Errorf("bind: row has %d values, want %d", len(row), len(req.BindCols))
		}
		key := make([]string, len(kcs))
		for j, kc := range kcs {
			if kc.bindIdx < 0 {
				key[j] = kc.constVal
			} else {
				key[j] = row[kc.bindIdx]
			}
		}
		keys = append(keys, key)
	}
	return a.Pred, cols, keys, nil
}

// Counters aggregates wire-level client traffic, typically shared by every
// pooled connection of one Executor. All fields are updated atomically;
// safe for concurrent use.
type Counters struct {
	requests      atomic.Uint64
	rowsFetched   atomic.Uint64
	bytesSent     atomic.Uint64
	bytesRecv     atomic.Uint64
	maxFrame      atomic.Uint64
	bindBatches   atomic.Uint64
	bindPipelined atomic.Uint64
	healthPings   atomic.Uint64
	healthDrops   atomic.Uint64
	dials         atomic.Uint64
	poolWaits     atomic.Uint64
	busyRetries   atomic.Uint64
	distinctMeta  atomic.Uint64
}

// WireStats is a snapshot of client-side wire counters.
type WireStats struct {
	// Requests counts protocol round trips issued.
	Requests uint64
	// RowsFetched counts tuples received in responses. This is the
	// headline bind-join metric: a semi-join ships only tuples that can
	// join, so RowsFetched drops by the join selectivity versus whole-
	// relation fetching.
	RowsFetched uint64
	// BytesSent and BytesRecv count request and response bytes on the wire.
	BytesSent, BytesRecv uint64
	// MaxFrameBytes is the largest single response frame observed — with
	// chunked streaming it stays near wire.ChunkMaxBytes no matter how
	// large a result is.
	MaxFrameBytes uint64
	// BindBatches counts bound-key batches shipped; BindBatchesPipelined
	// counts those written while an earlier batch's response was still
	// streaming back. Their difference is the number of sequential
	// round-trip stalls paid on the bind path.
	BindBatches, BindBatchesPipelined uint64
	// HealthPings counts idle-too-long pooled connections pinged before
	// reuse; HealthDrops counts those the ping found dead (closed and
	// replaced by a fresh dial instead of surfacing a first-use failure).
	HealthPings, HealthDrops uint64
	// Dials counts connections opened (pool misses plus broken-connection
	// replacements). A burst against one peer keeps this near the pool's
	// per-address connection cap instead of scaling with the burst.
	Dials uint64
	// PoolWaits counts borrows that blocked because the per-address
	// connection cap was reached (the dial-storm guard working).
	PoolWaits uint64
	// BusyRetries counts requests re-sent after the peer shed them with an
	// in-band busy error (each retry waits out a jittered backoff first).
	BusyRetries uint64
	// DistinctMeta counts final frames whose metadata piggyback carried
	// per-column distinct estimates — nonzero means the serving peers speak
	// the Distinct extension and the executor's join ordering is running on
	// column statistics rather than cardinality alone.
	DistinctMeta uint64
}

// Snapshot returns the current counter values.
func (ct *Counters) Snapshot() WireStats {
	return WireStats{
		Requests:             ct.requests.Load(),
		RowsFetched:          ct.rowsFetched.Load(),
		BytesSent:            ct.bytesSent.Load(),
		BytesRecv:            ct.bytesRecv.Load(),
		MaxFrameBytes:        ct.maxFrame.Load(),
		BindBatches:          ct.bindBatches.Load(),
		BindBatchesPipelined: ct.bindPipelined.Load(),
		HealthPings:          ct.healthPings.Load(),
		HealthDrops:          ct.healthDrops.Load(),
		Dials:                ct.dials.Load(),
		PoolWaits:            ct.poolWaits.Load(),
		BusyRetries:          ct.busyRetries.Load(),
		DistinctMeta:         ct.distinctMeta.Load(),
	}
}

// noteFrame records one received frame's size.
func (ct *Counters) noteFrame(n int) {
	ct.bytesRecv.Add(uint64(n) + 1)
	for {
		cur := ct.maxFrame.Load()
		if uint64(n) <= cur || ct.maxFrame.CompareAndSwap(cur, uint64(n)) {
			return
		}
	}
}

// Client is a connection to one peer server. A Client is not safe for
// concurrent use: the Executor multiplexes concurrent work over a
// per-address pool of Clients, borrowing one per in-flight request.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	enc  *json.Encoder
	// maxFrame caps one received response frame (wire.DefaultMaxFrame);
	// chunked streaming keeps real frames around wire.ChunkMaxBytes.
	maxFrame int
	// counters, when non-nil, aggregates this client's traffic (set by the
	// executor's pool so all pooled connections share one Counters).
	counters *Counters
	// onMeta, when non-nil, receives the cardinalities, generations and
	// per-column distinct estimates piggybacked on final response frames
	// (set by the executor's pool so estimates and generation observations
	// refresh continuously). dists is nil when the serving peer predates
	// the Distinct extension.
	onMeta func(preds []string, cards []int, gens []uint64, dists [][]float64)
	// tapMeta, when non-nil, additionally receives the same piggyback for
	// the duration of one logical call — the executor installs it around a
	// fragment fetch to stamp the cached fragment with the generation its
	// own response frames reported (the shared onMeta table would race with
	// concurrent calls observing newer generations).
	tapMeta func(preds []string, gens []uint64)
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

// clientConnWriter counts request bytes as they hit the socket.
type clientConnWriter struct{ c *Client }

func (w clientConnWriter) Write(p []byte) (int, error) {
	n, err := w.c.conn.Write(p)
	if w.c.counters != nil {
		w.c.counters.bytesSent.Add(uint64(n))
	}
	return n, err
}

// Dial connects to a peer server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReaderSize(conn, 64*1024), maxFrame: wire.DefaultMaxFrame}
	c.enc = json.NewEncoder(clientConnWriter{c: c})
	return c, nil
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
// is terminal but well-framed: the connection stays usable.
func (c *Client) readStream(onRows func([][]string) error) (wire.Response, error) {
	for {
		frame, err := wire.ReadFrame(c.br, c.maxFrame)
		if err != nil {
			// Includes ErrFrameTooLarge: the line was consumed, but the
			// logical response stream is now missing a frame (possibly the
			// final marker), so the connection cannot be trusted.
			c.broken = true
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return wire.Response{}, fmt.Errorf("netpeer: connection closed")
			}
			return wire.Response{}, err
		}
		if c.counters != nil {
			c.counters.noteFrame(len(frame))
		}
		var resp wire.Response
		if err := json.Unmarshal(frame, &resp); err != nil {
			c.broken = true
			return wire.Response{}, err
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
		if onRows != nil && len(resp.Rows) > 0 {
			if err := onRows(resp.Rows); err != nil {
				c.broken = true
				c.conn.Close()
				return wire.Response{}, err
			}
		}
		if !resp.More {
			if len(resp.Preds) > 0 {
				if c.counters != nil && len(resp.Distinct) > 0 {
					c.counters.distinctMeta.Add(1)
				}
				if c.onMeta != nil {
					c.onMeta(resp.Preds, resp.Cards, resp.Gens, resp.Distinct)
				}
				if c.tapMeta != nil {
					c.tapMeta(resp.Preds, resp.Gens)
				}
			}
			if c.traceSpan != nil && len(resp.Spans) > 0 {
				c.traceSpan.AdoptRemote(c.conn.RemoteAddr().String(), wireToSpans(resp.Spans))
			}
			return resp, nil
		}
	}
}

// roundTripStream writes one request and consumes its response stream,
// handing each frame's rows to onRows.
func (c *Client) roundTripStream(req wire.Request, onRows func([][]string) error) (wire.Response, error) {
	if c.counters != nil {
		c.counters.requests.Add(1)
	}
	if c.traceSpan != nil {
		req.Trace = c.traceSpan.TraceID()
		req.Span = c.traceSpan.ID()
	}
	if err := c.enc.Encode(req); err != nil {
		c.broken = true
		return wire.Response{}, err
	}
	return c.readStream(onRows)
}

// roundTrip is roundTripStream materialized: the returned response carries
// every row of the stream.
func (c *Client) roundTrip(req wire.Request) (wire.Response, error) {
	var all [][]string
	final, err := c.roundTripStream(req, func(rows [][]string) error {
		all = append(all, rows...)
		return nil
	})
	if err != nil {
		return wire.Response{}, err
	}
	final.Rows = all
	return final, nil
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

// Catalog lists the relations the peer serves.
func (c *Client) Catalog() ([]string, error) {
	resp, err := c.roundTrip(wire.Request{Op: "catalog"})
	if err != nil {
		return nil, err
	}
	return resp.Preds, nil
}

// CatalogStats lists the relations the peer serves together with their
// current cardinalities (estimates for join ordering; they may go stale
// without affecting correctness).
func (c *Client) CatalogStats() (map[string]int, error) {
	cards, _, err := c.CatalogMeta()
	return cards, err
}

// CatalogMeta is CatalogStats plus the per-column distinct estimates the
// peer advertises (nil per relation when the peer predates the Distinct
// extension) — both are join-ordering hints, never correctness inputs.
func (c *Client) CatalogMeta() (map[string]int, map[string][]float64, error) {
	resp, err := c.roundTrip(wire.Request{Op: "catalog"})
	if err != nil {
		return nil, nil, err
	}
	cards := make(map[string]int, len(resp.Preds))
	dists := make(map[string][]float64, len(resp.Preds))
	for i, p := range resp.Preds {
		if i < len(resp.Cards) {
			cards[p] = resp.Cards[i]
		} else {
			cards[p] = 0
		}
		if i < len(resp.Distinct) && len(resp.Distinct[i]) > 0 {
			dists[p] = resp.Distinct[i]
		}
	}
	return cards, dists, nil
}

// Gens asks the peer for the current generation (monotonic insert counter)
// of each named relation — the fragment cache's cheap revalidation round
// trip: no rows cross the wire, and a relation the peer does not serve
// reports generation 0.
func (c *Client) Gens(preds []string) (map[string]uint64, error) {
	resp, err := c.roundTrip(wire.Request{Op: "gens", Preds: preds})
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64, len(resp.Preds))
	for i, p := range resp.Preds {
		if i < len(resp.Gens) {
			out[p] = resp.Gens[i]
		} else {
			out[p] = 0
		}
	}
	return out, nil
}

// Ping performs a no-op round trip, verifying the connection and the peer
// are alive. Connection pools use it to health-check idle-too-long
// connections before reuse.
func (c *Client) Ping() error {
	_, err := c.roundTrip(wire.Request{Op: "ping"})
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
	resp, err := c.roundTrip(wire.Request{Op: "add", Pred: pred, Rows: rows})
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
	resp, err := c.roundTrip(wire.Request{Op: "scan", Pred: pred})
	if err != nil {
		return nil, err
	}
	return wire.RowsToTuples(resp.Rows), nil
}

// ScanStream streams one relation's tuples through yield as response
// frames arrive, without materializing the result. A yield that stalls
// stalls the read loop — and, once the socket buffers fill, the serving
// peer's response stream (the load generator's slow-consumer mode leans on
// exactly this backpressure).
func (c *Client) ScanStream(pred string, yield func(rel.Tuple) error) error {
	_, err := c.roundTripStream(wire.Request{Op: "scan", Pred: pred}, rowsToYield(yield))
	return err
}

// EvalStream evaluates a conjunctive query remotely — every body atom must
// name a relation the peer serves — invoking yield once per distinct head
// tuple as chunks arrive, in stream (not sorted) order.
func (c *Client) EvalStream(q lang.CQ, yield func(rel.Tuple) error) error {
	wq := wire.FromCQ(q)
	_, err := c.roundTripStream(wire.Request{Op: "eval", Query: &wq}, rowsToYield(yield))
	return err
}

// Eval is EvalStream materialized and sorted (the head tuples, distinct).
func (c *Client) Eval(q lang.CQ) ([]rel.Tuple, error) {
	wq := wire.FromCQ(q)
	resp, err := c.roundTrip(wire.Request{Op: "eval", Query: &wq})
	if err != nil {
		return nil, err
	}
	return rel.DistinctSorted(wire.RowsToTuples(resp.Rows)), nil
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
// byte-bounded batches with up to depth requests in flight: batch i+1 is
// written while batch i's rows are still streaming back, so consecutive
// batches pay no sequential round-trip stall (depth 1 degrades to the
// sequential protocol). The stream may contain duplicates across batches —
// callers deduplicate.
func (c *Client) BindEvalStream(a lang.Atom, bindCols []int, rows [][]string, depth int, yield func(rel.Tuple) error) error {
	if depth < 1 {
		depth = 1
	}
	if len(rows) == 0 {
		return nil
	}
	wa := wire.FromAtom(a)
	starts := bindBatchStarts(rows)
	nb := len(starts)
	// Per-batch trace spans: the writer creates batch i's span and hands it
	// through spanCh — buffered to nb, so the writer never blocks on it and
	// unread spans are simply dropped on an error exit — before encoding
	// the request; the reader installs it as the client's adoption target
	// while batch i's response streams back, then ends it.
	parent := c.traceSpan
	var spanCh chan *obs.Span
	if parent != nil {
		spanCh = make(chan *obs.Span, nb)
		defer func() { c.traceSpan = parent }()
	}
	var responsesDone atomic.Uint64
	sem := make(chan struct{}, depth)
	abort := make(chan struct{})
	writeErr := make(chan error, 1)
	go func() {
		writeErr <- func() error {
			for i := 0; i < nb; i++ {
				select {
				case sem <- struct{}{}:
				case <-abort:
					return nil
				}
				end := len(rows)
				if i+1 < nb {
					end = starts[i+1]
				}
				if c.counters != nil {
					c.counters.requests.Add(1)
					c.counters.bindBatches.Add(1)
					if uint64(i) > responsesDone.Load() {
						c.counters.bindPipelined.Add(1)
					}
				}
				req := wire.Request{
					Op:       "bind",
					Atom:     &wa,
					BindCols: bindCols,
					BindRows: rows[starts[i]:end],
				}
				if spanCh != nil {
					bs := parent.Child("bind.batch", obs.Attr{K: "pred", V: a.Pred})
					bs.SetInt("batch", int64(i))
					bs.SetInt("keys", int64(end-starts[i]))
					if bs != nil {
						req.Trace = bs.TraceID()
						req.Span = bs.ID()
					}
					spanCh <- bs
				}
				if err := c.enc.Encode(req); err != nil {
					return err
				}
			}
			return nil
		}()
	}()
	var readErr error
	read := 0
	for ; read < nb; read++ {
		if spanCh != nil {
			c.traceSpan = <-spanCh
		}
		_, err := c.readStream(rowsToYield(yield))
		if spanCh != nil {
			c.traceSpan.End()
		}
		responsesDone.Add(1)
		select {
		case <-sem:
		default:
		}
		if err != nil {
			readErr = err
			break
		}
	}
	if readErr == nil {
		werr := <-writeErr
		if werr != nil {
			c.broken = true
			return werr
		}
		return nil
	}
	if !c.broken && read+1 == nb {
		// The error frame was well-framed and answers the last batch. The
		// server answers a batch only after reading its request through
		// the newline, so every request is off the writer's hands and every
		// response has been read: the stream is in sync, and the writer is
		// past its last write, at most not yet scheduled to post. Joining
		// it cannot deadlock, and a non-blocking look would call a healthy
		// connection desynced whenever the reader got here first.
		if werr := <-writeErr; werr != nil {
			c.broken = true
			c.conn.Close()
		}
		return readErr
	}
	// Transport failure, or later batches are being written or have
	// responses in flight that will never be read: the stream is desynced.
	// Joining a writer that is mid-write would deadlock (the server stops
	// reading requests while we stop reading its responses), so kill the
	// connection first — that unblocks a writer stuck in a socket write —
	// then stop and join it.
	c.broken = true
	c.conn.Close()
	close(abort)
	<-writeErr
	return readErr
}

// BindEval is BindEvalStream materialized, with sequential (depth-1)
// batch shipping.
func (c *Client) BindEval(a lang.Atom, bindCols []int, rows [][]string) ([]rel.Tuple, error) {
	var out []rel.Tuple
	err := c.BindEvalStream(a, bindCols, rows, 1, func(t rel.Tuple) error {
		out = append(out, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
