// Package netpeer turns the PDMS into an actually distributed system: each
// peer runs a Server exposing its stored relations over a TCP protocol of
// length-prefixed frames, each one binary row block whose first row is the
// frame's envelope (package wire), and an Executor evaluates reformulated
// unions of conjunctive queries across the network.
//
// The server answers the six ops of the peer protocol (package wire lists
// the envelopes, wire/PROTOCOL.md is the normative specification):
// "catalog" reports cardinalities and per-relation generations; "scan"
// and "eval" stream a relation, or a conjunctive query over this peer's
// relations — full push-down of single-peer rewritings and selection-pushed
// per-atom fetches; "bind" is the semi-join half of bind-join execution,
// one atom plus a batch of bound join-key rows answered by one indexed
// probe per key (engine.ProbeByKeyBatchYield) instead of a full scan;
// "ping" is a liveness probe that touches no relation; "add" inserts a
// batch of tuples under the same read-side locking as Server.AddFact.
//
// The server practices admission control (Server.MaxInflight, MaxQueue,
// QueueWait): requests beyond the in-flight limit wait in a bounded FIFO
// queue, and everything beyond that is *shed* with a retryable in-band busy
// error frame (the executor's pools back off with jitter and retry). Each
// connection is one loop — read a request, admit it, answer it — so
// requests a client pipelines wait in the socket and are held back by TCP
// flow control, not server memory. Graceful shutdown (Drain) stops
// accepting, lets queued and in-flight requests finish, then closes.
//
// Responses STREAM (see package wire): a row-bearing op answers with
// bounded chunks followed by a final frame, produced through the engine's
// enumeration hooks (engine.StreamCQ, engine.StreamScan,
// engine.ProbeByKeyBatchYield) rather than materialized — each yielded
// view goes straight into the frame's row block — so results of any size
// flow through in O(chunk) memory. A request of another protocol version
// is answered with an in-band error naming both versions. The final frame
// piggybacks the cardinalities and generations of the relations touched,
// captured before row production so the generation is a floor (the
// stream carries at least everything at that generation — see
// wire/PROTOCOL.md); the executor folds them into its join-order estimates
// and stamps its cached fragments with them. A request carrying
// the generation of the caller's cached copy is answered "unchanged", with
// no rows, while that generation is still current. An oversized or garbled
// *request* frame is answered with an in-band error (the stream stays
// framed), never a silent connection drop; genuinely broken streams are
// counted and reported through the optional Server.Logger.
//
// Single-peer rewritings push down whole; cross-peer rewritings execute
// as a streaming, adaptive bind-join over per-address connection pools,
// with the fetched fragments cached across queries and validated by
// generation — the distributed half of the system's two-level cache
// architecture (the local half is pdms.Network's generation-vector answer
// cache). The Executor type documents the algorithm. Both sides keep
// wire-level counters as obs instruments (requests, rows and bytes on the
// server; those plus bind batches, dials and busy retries on the executor),
// registered by RegisterMetrics, so the shipping savings are measurable.
//
// The paper treats query execution as out of scope ("recent techniques for
// adaptive query processing are well suited for our context"); this package
// supplies the minimal honest substrate so that the full pipeline — pose at
// a peer, reformulate, execute across peers — runs over real sockets.
package netpeer

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rel"
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
	// Logger, when non-nil, receives server-side diagnostics for conditions
	// that cannot be answered in-band (broken request streams, read
	// failures, accept retries) as structured records with peer and error
	// attributes. Set it before Start.
	Logger *slog.Logger
	// Tracer, when non-nil, keeps the span trees of traced requests this
	// server has answered in its ring buffer — the serving-side
	// /debug/traces view. Untraced requests are never recorded.
	Tracer *obs.Tracer
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
	// CheckRow, when non-nil, judges every row written through AddFact or
	// an add request before it is inserted: a non-nil error rejects the
	// row, and an add request answers with that error in-band, naming the
	// row's position (rows before it stay inserted). cmd/peerd sets it to
	// the spec's ppl.PDMS.CheckFact. Set before Start.
	CheckRow func(pred string, values []string) error

	// maxRequestBytes caps one request frame: an over-limit request is
	// read and dropped and answered with an in-band error, and the
	// connection survives. writeTimeout bounds each response-frame write,
	// so a client that stops reading is disconnected instead of pinning
	// the server's read lock. NewServer sets both from the defaults.
	maxRequestBytes int
	writeTimeout    time.Duration

	// mu guards the lifecycle fields below (lis, cancel, adm) with brief
	// exclusive sections; data paths — streams and inserts alike — only
	// ever take the read side. Nothing data-bearing may take the write
	// lock: a stream holds RLock for its whole response, so one stalled
	// consumer plus one pending writer would convoy every later reader
	// behind this write-preferring RWMutex (see handleAdd). Read-side
	// inserts are safe because the instance itself self-synchronizes:
	// each relation carries its own lock and rel.Instance serializes
	// first-use relation creation internally, so this RLock only pins the
	// instance pointer.
	mu   sync.RWMutex
	data *rel.Instance // guarded by mu (all access under RLock; instance self-synchronizes)
	eng  *engine.Engine

	// reqHist times every admitted request (dequeue to final frame
	// written, admission wait included).
	reqHist obs.Histogram
	// admMetrics are the admission gate's instruments, held here so they
	// register (at zero) whether or not the gate exists.
	admMetrics admissionMetrics
	// adm is the admission gate, built by ServeListener from MaxInflight/
	// MaxQueue/QueueWait (nil = admission off).
	adm *admission // guarded by mu (ServeListener publishes; read via gate)

	lis    net.Listener       // guarded by mu (Start publishes, Close consumes)
	cancel context.CancelFunc // guarded by mu
	wg     sync.WaitGroup

	// draining is set by Drain: the listener is gone, connections finish
	// the requests they have read (including pipelined ones already in
	// their read buffer) and unblocked idle reads exit cleanly instead of
	// counting as errors.
	draining atomic.Bool
	connMu   sync.Mutex
	conns    map[net.Conn]struct{} // guarded by connMu (live connections, for Drain's read-deadline nudge)

	// requests counts protocol requests handled (including errors) and
	// rowsServed the tuples returned across all response frames; bytesSent
	// and bytesRecv count response and request bytes on the wire.
	requests, rowsServed, bytesSent, bytesRecv obs.Counter
	// readErrors counts request frames that could not be read cleanly
	// (over-limit or broken mid-line). Over-limit frames also get an
	// in-band error response; the rest tear down the connection with a
	// Logger diagnostic instead of dying silently.
	readErrors obs.Counter
	// acceptRetries counts temporary Accept failures the listen loop rode
	// out with backoff instead of terminating.
	acceptRetries obs.Counter
}

// gate returns the admission gate (nil while the server has not started
// or runs without admission control).
func (s *Server) gate() *admission {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.adm
}

// NewServer creates a server over the given instance (which the server
// reads under its own lock; use AddFact for concurrent-safe insertion).
func NewServer(data *rel.Instance) *Server {
	if data == nil {
		data = rel.NewInstance()
	}
	return &Server{
		maxRequestBytes: defaultMaxRequestBytes,
		writeTimeout:    defaultWriteTimeout,
		data:            data,
		eng:             engine.New(data),
		conns:           map[net.Conn]struct{}{},
	}
}

// AddFact inserts a tuple into a served relation. Inserts self-synchronize
// inside the instance — under each relation's lock for tuples, under
// rel.Instance's own lock for first-use relation creation — so this never
// waits for (or convoys behind) an in-flight response stream; the read
// lock only pins the instance pointer.
func (s *Server) AddFact(pred string, t rel.Tuple) error {
	if s.CheckRow != nil {
		if err := s.CheckRow(pred, t); err != nil {
			return err
		}
	}
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
		s.adm = newAdmission(s.MaxInflight, s.MaxQueue, s.QueueWait, &s.admMetrics)
	}
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ctx, lis)
}

// Close stops the listener, disconnects every client, and waits for the
// connection goroutines. In-flight requests are cut off (their connections
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
// waiting in a connection's read buffer — finish, then close. Clients
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

// serveConn is a connection's one loop: read a request, admit it, answer
// it, repeat. Requests a client pipelines wait in the socket and br, so
// TCP flow control — not server memory — holds back an over-eager
// pipeliner, and responses leave strictly in request order.
func (s *Server) serveConn(ctx context.Context, conn net.Conn) {
	// Close the connection when the server shuts down so the read below
	// unblocks and Close's WaitGroup drains even with idle clients.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	s.trackConn(conn, true)
	defer s.trackConn(conn, false)
	br := bufio.NewReaderSize(conn, 64*1024)
	// in is the connection's request frame buffer, reused across frames.
	var in []byte
	w := &frameWriter{s: s, conn: conn}

	adm := s.gate()
	for {
		req, errMsg, ok := s.readRequest(conn, br, &in)
		if !ok || ctx.Err() != nil {
			return
		}
		if errMsg != "" {
			if w.send(wire.Response{Error: errMsg}) != nil {
				return
			}
			continue
		}
		// Admission: acquire a global execution slot (or queue for one)
		// before any work happens. A shed request is answered with a
		// retryable in-band busy frame and costs the server nothing else.
		if err := adm.acquire(ctx); err != nil {
			if errors.Is(err, errShed) {
				if w.send(wire.Response{
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
		err := s.handleStream(req, w)
		s.reqHist.Observe(time.Since(reqStart))
		adm.release()
		if err != nil {
			return
		}
	}
}

// readRequest reads a connection's next request into *in, the
// connection's reused request buffer, and decodes it. ok is false at a
// clean disconnect or a terminal read failure. Recoverable failures (an
// over-limit request, one that does not decode) come back as errMsg, to be
// answered in-band: the frame's length prefix keeps the stream framed. A
// peer of another protocol version gets wire.VersionReply, and ok false.
func (s *Server) readRequest(conn net.Conn, br *bufio.Reader, in *[]byte) (req wire.Request, errMsg string, ok bool) {
	frame, err := wire.ReadRequest(br, *in, s.maxRequestBytes, &req)
	*in = recycle(frame)
	switch {
	case err == nil, errors.Is(err, wire.ErrBadRequest):
		s.requests.Add(1)
		s.bytesRecv.Add(uint64(len(frame)))
		if err != nil {
			return req, err.Error(), true
		}
	case errors.Is(err, wire.ErrFrameTooLarge):
		// The over-limit request was read and dropped, so the stream is
		// still framed: answer in-band instead of dropping the connection
		// silently.
		s.requests.Add(1)
		s.readErrors.Add(1)
		s.logw("netpeer: request frame over limit", "peer", conn.RemoteAddr(), "limit", s.maxRequestBytes)
		return req, fmt.Sprintf("request frame exceeds %d bytes", s.maxRequestBytes), true
	case errors.Is(err, wire.ErrVersion):
		// An older peer's JSON line, or a later version's frame: the rest
		// of its stream cannot be framed, so answer with the one line
		// every JSON version reads as an error frame, and close.
		s.readErrors.Add(1)
		s.logw("netpeer: request of another protocol version", "peer", conn.RemoteAddr(), "err", err)
		conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		_, _ = conn.Write([]byte(wire.VersionReply)) // the connection closes either way
		return req, "", false
	case errors.Is(err, io.EOF):
		return req, "", false // clean disconnect at a frame boundary
	default:
		var ne net.Error
		if s.draining.Load() && errors.As(err, &ne) && ne.Timeout() {
			// Drain's read-deadline nudge: the client is idle at a frame
			// boundary (requests already in br were read above); wind the
			// connection down quietly.
			return req, "", false
		}
		s.readErrors.Add(1)
		s.logw("netpeer: reading request", "peer", conn.RemoteAddr(), "err", err)
		return req, "", false
	}
	return req, "", true
}

// frameWriter writes one connection's response frames. Each frame is
// encoded into out and written in one call, so the client makes progress
// chunk by chunk, under its own write deadline: response streams run under
// the server's read lock, and a client that stops draining must cost a
// dropped connection, not a wedged lock.
type frameWriter struct {
	s    *Server
	conn net.Conn
	// out is the encode buffer, and block the row block of the frame being
	// built, holding rows rows; both are reused across frames.
	out, block []byte
	rows       int
}

// send writes resp as one frame, carrying the rows appended since the last
// send, and starts the next frame empty.
func (w *frameWriter) send(resp wire.Response) error {
	w.conn.SetWriteDeadline(time.Now().Add(w.s.writeTimeout))
	w.s.rowsServed.Add(uint64(w.rows))
	w.out = wire.AppendResponse(w.out, &resp, w.block)
	n, err := w.conn.Write(w.out)
	w.s.bytesSent.Add(uint64(n))
	w.out, w.block, w.rows = recycle(w.out), recycle(w.block), 0
	return err
}

// metaOfLocked assembles the piggyback frame for the touched relations:
// cardinality (a join-ordering hint) and generation (the fragment cache's
// staleness token). Callers hold the read lock. Streaming ops capture it
// BEFORE row production: with adds landing concurrently, a generation read
// after the stream could include a tuple the stream already walked past,
// and a fragment tagged with it would claim completeness it doesn't have.
// Captured up front, the tag is a floor — the append-only logs guarantee
// the stream carries everything at or before it, and rows that land
// mid-stream are true tuples monotone queries absorb.
func (s *Server) metaOfLocked(preds ...string) wire.Response {
	m := wire.Response{
		Preds: preds,
		Cards: make([]int, len(preds)),
		Gens:  make([]uint64, len(preds)),
	}
	for i, p := range preds {
		if r := s.data.Relation(p); r != nil {
			m.Cards[i] = r.Len()
			m.Gens[i] = r.Version()
		}
	}
	return m
}

// streamRows is the shared tail of the row-bearing ops (scan, eval, bind),
// which read preds. It captures their metadata first; when the request
// reads one relation and its ifGen still equals that relation's
// generation, the answer is a single unchanged final frame with no rows.
// Otherwise produce's rows go straight into w's row block under the child
// span sp and flow out as bounded non-final frames — per-response memory
// stays O(chunk) regardless of result size — then either an in-band error
// frame (final, superseding any rows already shipped) or the final frame
// carrying the remaining rows, the metadata and the exported trace spans.
// A transport failure is returned as is: it is terminal for the
// connection.
func (s *Server) streamRows(w *frameWriter, sp *obs.Span, ifGen *uint64, preds []string,
	exported func() []obs.SpanData, produce func(yield func(rel.Tuple) error) error) error {
	meta := s.metaOfLocked(preds...)
	if ifGen != nil && len(preds) == 1 && meta.Gens[0] == *ifGen {
		sp.Set("unchanged", "true")
		sp.End()
		meta.Unchanged, meta.Spans = true, exported()
		return w.send(meta)
	}
	var total int
	var sendErr error
	err := produce(func(t rel.Tuple) error {
		// t is a view valid only during the call; the block copies it.
		w.block = rel.AppendRow(w.block, t)
		w.rows++
		total++
		if w.rows >= wire.ChunkMaxRows || len(w.block) >= wire.ChunkMaxBytes {
			sendErr = w.send(wire.Response{More: true})
		}
		return sendErr
	})
	sp.SetErr(err)
	sp.SetInt("rows", int64(total))
	sp.End()
	if sendErr != nil {
		return sendErr
	}
	if err != nil {
		w.block, w.rows = w.block[:0], 0 // the error frame supersedes them
		return w.send(wire.Response{Error: err.Error()})
	}
	meta.Spans = exported()
	return w.send(meta)
}

// handleStream answers one request as a stream of frames through w. It
// returns the first transport error, or nil once the response — success or
// in-band error — is fully written. Row production runs under the read
// lock, and so do concurrent adds: handleAdd says why that is sound and
// what it spares the server.
func (s *Server) handleStream(req wire.Request, w *frameWriter) error {
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
	exported := func() []obs.SpanData {
		if root == nil {
			return nil
		}
		root.End()
		s.Tracer.Record(root)
		return root.Export(req.Span)
	}
	if req.Op == "add" {
		// The one mutating op: it manages its own (read-side) locking, so
		// it branches off before the read lock the streaming ops hold for
		// their whole response.
		return s.handleAdd(req, w, exported)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	switch req.Op {
	case "catalog":
		resp := s.metaOfLocked(s.data.Relations()...)
		resp.Spans = exported()
		return w.send(resp)
	case "ping":
		// Liveness probe; deliberately touches no relation state.
		return w.send(wire.Response{Spans: exported()})
	case "scan":
		// StreamScan walks the relation's rows directly: no sort, no
		// sorted-view materialization, O(chunk) memory end to end. Row order
		// is the relation's walk order (unspecified by the protocol).
		sp := root.Child("scan", obs.Attr{K: "pred", V: req.Pred})
		return s.streamRows(w, sp, req.IfGen, []string{req.Pred}, exported, func(yield func(rel.Tuple) error) error {
			return s.eng.StreamScan(req.Pred, yield)
		})
	case "eval":
		if req.Query == nil {
			return w.send(wire.Response{Error: "eval: missing query"})
		}
		q := *req.Query
		var bodyPreds []string
		for _, a := range q.Body {
			// A body holds few atoms: a scan beats a map.
			if !slices.Contains(bodyPreds, a.Pred) {
				bodyPreds = append(bodyPreds, a.Pred)
			}
		}
		sp := root.Child("eval", obs.Attr{K: "head", V: kept(root, q.Head.Pred)})
		return s.streamRows(w, sp, req.IfGen, bodyPreds, exported, func(yield func(rel.Tuple) error) error {
			return s.eng.StreamCQ(q, yield)
		})
	case "bind":
		pred, cols, keys, err := bindProbeArgs(req)
		if err != nil {
			return w.send(wire.Response{Error: err.Error()})
		}
		sp := root.Child("bind", obs.Attr{K: "pred", V: kept(root, pred)})
		sp.SetInt("keys", int64(len(keys)))
		return s.streamRows(w, sp, req.IfGen, []string{pred}, exported, func(yield func(rel.Tuple) error) error {
			return s.eng.ProbeByKeyBatchYield(pred, cols, keys, yield)
		})
	default:
		return w.send(wire.Response{Error: fmt.Sprintf("unknown op %q", req.Op)})
	}
}

// kept copies v for an attribute of root's span tree. The strings of a
// request's query and atom are substrings of its row block
// (wire.ReadRequest), and a traced request's tree outlives the request in
// the Tracer's ring; an untraced request keeps no span, so v is returned
// as is.
func kept(root *obs.Span, v string) string {
	if root == nil {
		return v
	}
	return strings.Clone(v)
}

// handleAdd applies one add request: insert req.Rows into req.Pred (rows
// become visible individually as each insert lands — the batch is not an
// atomic unit of visibility), then answer with a single final
// frame whose piggyback metadata (cardinality, generation) is read after
// the last insert, so the client's fragment cache sees a generation at
// least as new as its own write. A failed row — one CheckRow rejects, or
// one of the wrong arity — stops the batch; rows before it stay inserted
// (the in-band error reports how many landed).
//
// Inserts deliberately run under the read lock (tuple inserts synchronize
// under each relation's lock, and rel.Instance internally serializes the
// map write when a new predicate materializes a relation): an exclusive lock here
// would convoy the whole server behind any stalled response stream —
// streams hold the read lock end to end, so one slow consumer plus one
// pending writer would block every later reader on this write-preferring
// RWMutex for as long as the stall lasts (bounded only by writeTimeout).
// Append-only relations keep concurrent streams sound: a stream observes a
// superset of its start-state and a subset of its end-state, which is
// exactly right for monotone conjunctive queries.
func (s *Server) handleAdd(req wire.Request, w *frameWriter, exported func() []obs.SpanData) error {
	if req.Pred == "" {
		return w.send(wire.Response{Error: "add: missing pred"})
	}
	s.mu.RLock()
	var inserted int
	var addErr error
	for _, row := range req.Rows {
		if s.CheckRow != nil {
			if addErr = s.CheckRow(req.Pred, row); addErr != nil {
				break
			}
		}
		if _, addErr = s.data.Add(req.Pred, rel.Tuple(row)); addErr != nil {
			break
		}
		inserted++
	}
	resp := s.metaOfLocked(req.Pred)
	s.mu.RUnlock()
	if addErr != nil {
		return w.send(wire.Response{Error: fmt.Sprintf("add: row %d of %d: %v", inserted, len(req.Rows), addErr)})
	}
	resp.Spans = exported()
	return w.send(resp)
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
	a := *req.Atom
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
	keys = make([][]string, 0, len(req.Rows))
	for _, row := range req.Rows {
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
