// Package wire defines the message format peers use on the network: the
// request/response envelopes of the peer protocol, and the binary row
// block that carries the rows of requests and responses and the queries
// and atoms of requests.
//
// The protocol (version 4, Version) runs over TCP: one request frame at a
// time, answered by a *stream* of one or more response frames. Every
// request carries "v":4. Six request kinds:
//
//	{"op":"eval", "body":B,           evaluate a CQ over this peer's stored
//	 "rowBytes":N} + query rows       relations, returning the head tuples
//	{"op":"scan", "pred":"FH.doc"}    return all tuples of one relation
//	{"op":"catalog"}                  list the stored relations served here,
//	                                  with their current cardinalities and
//	                                  per-relation generations
//	{"op":"bind", "bindCols":[…],     bind-join probe: return the distinct
//	 "rowBytes":N} + atom row         tuples of the atom's relation that
//	 + key rows                       match the atom's constants and, at the
//	                                  bindCols positions, any one of the
//	                                  shipped key rows
//	{"op":"ping"}                     no-op liveness probe
//	{"op":"add", "pred":"FH.doc",     insert a batch of tuples into one
//	 "rowBytes":N} + tuples           stored relation (creating it on first
//	                                  use) — the mutation half of mixed
//	                                  read/write workloads
//
// Requests and responses share one frame shape: a JSON envelope line and,
// when the frame carries rows, "rowBytes":N in the envelope and exactly N
// bytes of row block after its newline: per row uvarint(arity), then per
// value uvarint(len) and the value's bytes. Values cross the wire byte for
// byte, whatever they hold. An eval's query and a bind's atom are rows of
// the block too: an atom is the predicate and one value per term, a
// variable as "?" and its name, a constant as "=" and its bytes; a
// comparison is its operator and its two terms. A row of the block is
// also the payload of a segment journal's tuple frame (internal/store).
//
// A server under admission control may answer any request with a *busy*
// error frame ({"error":…,"busy":true}): the request was shed before doing
// any work and is safe to retry after a backoff — the connection stays
// usable.
//
// Responses are chunked: a row-bearing op (eval, scan, bind) answers with
// zero or more non-final frames {"rowBytes":N,"more":true} — each bounded
// in rows and bytes, so neither side ever frames an answer-sized message —
// followed by exactly one final frame (no "more") that carries any
// trailing rows plus, piggybacked, the current cardinalities *and
// per-relation generations* of the relations the request touched
// ("preds"/"cards"/"gens"). The querying executor folds the cardinalities
// into its join-order estimates and stamps its cached fragments with the
// generations. A scan, bind or one-relation eval may carry "ifGen", the
// generation of the caller's cached copy: while the relation's generation
// still equals it, the server answers one final frame with "unchanged"
// set and no rows, so validating a cached fragment costs no extra round
// trip. An error frame ({"error":…}) is always final and may arrive
// mid-stream, in which case the rows already received must be discarded.
// Single-frame ops (catalog, ping, add, errors) are just a stream of
// length one.
//
// The bind op is the semi-join half of cross-peer bind-join execution: the
// querying peer ships the distinct join-key values it has bound so far
// (in batches) instead of pulling the whole selection-pushed relation, and
// the serving peer answers each batch from its hash indexes. The server
// answers a connection's requests strictly in order, so frames never
// interleave across requests; the reference client sends one request at a
// time.
//
// Every frame goes through this package's own codec rather than
// reflection: AppendRequest and ReadRequest write and read a request (and
// ReadRequest lowers its query and atom rows to lang values),
// AppendResponse and ReadResponse a response frame. The row block is
// package rel's row encoding, which rel alone decodes (rel.DecodeRows) and
// writes (rel.AppendRow): a relation stores each row in it and the journal
// frames a stored row as it is, so this package keeps only the lowering of
// query and atom rows. Envelopes are byte-identical to encoding/json in
// both directions — the codec writes what json.Encoder writes and yields
// what json.Unmarshal yields, handing anything outside the common shape to
// encoding/json itself — but rows, queries and atoms are never JSON: they
// travel in the row block.
//
// PROTOCOL.md in this directory is the normative specification: frame
// layout, per-op request/response contracts, error-frame and streaming
// semantics, the metadata piggyback, size limits and the compatibility
// rules. This package comment is the summary; the spec wins on conflict.
package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rel"
)

// Version is the protocol version this package speaks. Every request
// carries it in V; a request without "v" is version 1. Version 3 carried
// a request's query and atom as JSON, version 2 its rows too, and version
// 1 a response's rows as well.
const Version = 4

// Request is one protocol request.
type Request struct {
	// Op is "eval", "scan", "catalog", "bind", "add" or "ping".
	Op string `json:"op"`
	// V is the protocol version the request speaks. A server answers any
	// value other than Version with an error frame naming both versions.
	V int `json:"v,omitempty"`
	// Query is the CQ for eval. It travels in the frame's row block, never
	// in the envelope: the head row, Body body-atom rows, then one row per
	// comparison.
	Query *lang.CQ `json:"-"`
	// Body is the number of body-atom rows of an eval's query. AppendRequest
	// writes it from Query, and ReadRequest splits the block by it.
	Body int `json:"body,omitempty"`
	// Pred is the relation for scan and add.
	Pred string `json:"pred,omitempty"`
	// Atom is the atom to probe for bind: constant arguments are pushed
	// down as selections; variable arguments are unconstrained unless their
	// position appears in BindCols. It is the first row of the frame's row
	// block, ahead of the key rows.
	Atom *lang.Atom `json:"-"`
	// BindCols lists the variable positions of Atom bound by a bind
	// request's key rows.
	BindCols []int `json:"bindCols,omitempty"`
	// Rows are an add request's tuples, inserted into Pred, or one batch of
	// a bind request's join keys, one value per BindCols entry: a tuple
	// matches the batch when its projection onto BindCols equals a row.
	// They travel in the frame's row block, never in the envelope.
	Rows [][]string `json:"-"`
	// RowBytes is the length of the row block that follows the envelope
	// line. AppendRequest writes it from Query, Atom and Rows, and
	// ReadRequest reads that many bytes after the envelope.
	RowBytes int `json:"rowBytes,omitempty"`
	// Trace optionally carries the caller's trace ID. A server that
	// understands it times the request's server-side work and ships the
	// resulting spans back on the final response frame; servers predating
	// the field ignore it (unknown JSON fields are skipped), which simply
	// leaves the caller's trace without remote detail.
	Trace string `json:"trace,omitempty"`
	// Span is the caller-side span ID the returned remote spans should be
	// parented under. Meaningful only with Trace set.
	Span uint64 `json:"span,omitempty"`
	// IfGen, when present, makes a request that reads exactly one relation
	// (scan, bind, an eval over one relation) conditional: if the relation's
	// generation still equals *IfGen, the server answers one final frame
	// with the metadata and Unchanged set, and no rows. Presence, not
	// value, marks the request — generation 0 is a valid stamp.
	IfGen *uint64 `json:"ifGen,omitempty"`
}

// Response is one frame of a protocol response stream. Row-bearing ops
// answer with zero or more non-final frames (More set) followed by one
// final frame; every other op answers with a single final frame.
type Response struct {
	// Error is non-empty on failure; other fields (except Busy) are then
	// unset. An error frame is always final and may arrive mid-stream,
	// superseding any rows already received for the request.
	Error string `json:"error,omitempty"`
	// Busy marks an error frame as an admission-control shed: the server
	// refused to start the request because its in-flight limit and wait
	// queue were exhausted. The request had no effect and is safe to retry
	// after a backoff; the connection remains usable. Meaningful only with
	// Error set.
	Busy bool `json:"busy,omitempty"`
	// Rows carries one bounded chunk of eval/scan/bind results. ReadResponse
	// fills it from the frame's row block; it is never part of the
	// envelope, and a received envelope with a "rows" key is a version 1
	// frame, which ReadResponse rejects. (The tag serves only a caller
	// that marshals a Response through encoding/json itself.)
	Rows [][]string `json:"rows,omitempty"`
	// RowBytes is the length of the row block that follows the envelope
	// line. AppendResponse writes it from the block it is given, and
	// ReadResponse reads that many bytes after the envelope.
	RowBytes int `json:"rowBytes,omitempty"`
	// More marks a non-final frame: further frames for the same request
	// follow on the stream.
	More bool `json:"more,omitempty"`
	// Unchanged marks the final frame answering a request whose IfGen
	// equals the relation's current generation: the caller's cached rows
	// are still complete, so none were produced. A receiver ignores any
	// rows such a frame carries.
	Unchanged bool `json:"unchanged,omitempty"`
	// Preds carries the catalog listing and, on the final frame of eval/
	// scan/bind responses, the names of the relations the request touched.
	Preds []string `json:"preds,omitempty"`
	// Cards carries cardinalities parallel to Preds. The executor's
	// join-order heuristic consumes them as estimates — refreshed on every
	// response, they may still go stale without affecting correctness.
	Cards []int `json:"cards,omitempty"`
	// Gens carries per-relation generations (monotonic insert counters)
	// parallel to Preds, read under the same server lock as the rows of
	// the frame. Unlike Cards they carry a correctness contract: a cached
	// fragment of relation R stamped with generation g holds exactly R's
	// matching tuples for as long as R's generation stays g, so the
	// executor's fragment cache serves an entry only after the serving peer
	// answers a fetch carrying IfGen g with Unchanged.
	Gens []uint64 `json:"gens,omitempty"`
	// Spans carries the serving peer's trace spans for this request,
	// present only on the final frame of a request that carried a Trace ID
	// and only when the server sampled it. IDs are scoped to this response:
	// a Parent names another span here or the request's Span. Clients that
	// predate the field ignore it.
	Spans []obs.SpanData `json:"spans,omitempty"`
}

// ErrFrameTooLarge is returned by ReadFrame when one line exceeds the
// caller's limit, and by ReadRequest when a request does. The oversized
// line has been consumed through its newline (and a request's announced
// row block read and discarded), so the stream is still framed.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrBadRequest is wrapped by the errors ReadRequest returns for a request
// it read whole but could not decode: the stream is still framed.
var ErrBadRequest = errors.New("bad request")

// DefaultMaxFrame is the sanity ceiling ReadFrame and ReadResponse callers
// use by default. It bounds a single frame — a line, or a response's
// envelope plus its row block — not a result: chunked responses keep
// normal frames near ChunkMaxBytes, so only a pathological or hostile peer
// ever approaches it.
const DefaultMaxFrame = 1 << 30

// ChunkMaxRows and ChunkMaxBytes bound one response chunk: a frame is
// flushed once it holds ChunkMaxRows rows or its row block reaches
// ChunkMaxBytes. Both sides therefore buffer O(chunk), never O(result).
const (
	ChunkMaxRows  = 1024
	ChunkMaxBytes = 1 << 20
)

// ReadFrame reads one newline-terminated frame from br, without the
// newline. A line longer than max is consumed through its terminating
// newline and reported as ErrFrameTooLarge — the stream remains framed, so
// the caller can answer with an in-band error instead of dropping the
// connection. io.EOF is returned only at a clean frame boundary; a partial
// trailing line is io.ErrUnexpectedEOF.
func ReadFrame(br *bufio.Reader, max int) ([]byte, error) {
	return appendFrame(nil, br, max)
}

// appendFrame is ReadFrame appending the frame to dst, so a caller can
// reuse one buffer across frames. On error it returns dst unextended.
func appendFrame(dst []byte, br *bufio.Reader, max int) ([]byte, error) {
	buf := dst
	for {
		chunk, err := br.ReadSlice('\n')
		if len(chunk) > 0 && (err == nil || errors.Is(err, bufio.ErrBufferFull)) {
			if len(buf)-len(dst)+len(chunk) > max {
				// Keep consuming to the newline so framing survives.
				for err == nil || errors.Is(err, bufio.ErrBufferFull) {
					if n := len(chunk); n > 0 && chunk[n-1] == '\n' {
						return dst, ErrFrameTooLarge
					}
					chunk, err = br.ReadSlice('\n')
				}
				return dst, unexpected(err)
			}
			buf = append(buf, chunk...)
			if buf[len(buf)-1] == '\n' {
				return buf[:len(buf)-1], nil
			}
			continue
		}
		if errors.Is(err, io.EOF) {
			if len(buf) > len(dst) || len(chunk) > 0 {
				return dst, io.ErrUnexpectedEOF
			}
			return dst, io.EOF
		}
		if err == nil {
			// ReadSlice returned no bytes and no error; never happens, but
			// avoid spinning.
			continue
		}
		return dst, err
	}
}

// unexpected turns io.EOF, met inside a frame, into io.ErrUnexpectedEOF.
func unexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// appendBlock appends to buf the n-byte row block that follows an
// envelope. It reads in steps, doubling what has arrived from 64 KiB (a
// normal block is one step), so a peer that announces more than it sends
// costs at most what it sent.
func appendBlock(buf []byte, br *bufio.Reader, n int) ([]byte, error) {
	start, end := len(buf), len(buf)+n
	for len(buf) < end {
		step := min(end-len(buf), max(len(buf)-start, 64<<10))
		buf = slices.Grow(buf, step)
		m, err := io.ReadFull(br, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, unexpected(err)
		}
	}
	return buf, nil
}

// ReadResponse reads one response frame from br into r, overwriting it,
// and returns the buffer holding the frame. The envelope line is appended
// to buf[:0]; the row block its rowBytes announces is then read after the
// envelope, in the same buffer, so a caller reuses one buffer across
// frames. The returned buffer's length is the frame's size on the wire
// less the newline.
//
// limit caps the frame, envelope and block together. A block that would
// pass it fails before any of it is read or allocated, and the block is
// read in steps, so a peer that announces more than it sends costs at most
// what it sent. The rows are decoded as rel.DecodeRows says, so r.Rows never
// aliases buf. A response envelope with a "rows" key is a version 1 frame
// and an error. io.EOF is returned only at a clean frame boundary; a frame
// cut short is io.ErrUnexpectedEOF. After an error r is zero, and after
// any error but io.EOF the stream is no longer framed.
func ReadResponse(br *bufio.Reader, buf []byte, limit int, r *Response) (_ []byte, err error) {
	defer func() {
		if err != nil {
			*r = Response{}
		}
	}()
	buf, err = appendFrame(buf[:0], br, limit)
	if err != nil {
		return buf, err
	}
	env := len(buf)
	if err := decodeResponse(buf, r); err != nil {
		return buf, err
	}
	n := r.RowBytes
	if n == 0 {
		return buf, nil
	}
	if n > limit-env {
		return buf, fmt.Errorf("wire: row block of %d bytes after a %d-byte envelope exceeds the %d-byte frame limit", n, env, limit)
	}
	if buf, err = appendBlock(buf, br, n); err != nil {
		return buf, err
	}
	r.Rows, err = rel.DecodeRows(buf[env:])
	return buf, err
}

// ReadRequest is ReadResponse for a request frame, with the rows decoded
// and split as Request.split says: an eval's query and a bind's atom
// lowered to lang values, the rest in r.Rows. limit caps the frame,
// envelope and block together; both over-limit cases are
// ErrFrameTooLarge. An envelope line over it is consumed through its
// newline and r is zero: whether a block follows is unknown, so a server
// closes the connection after answering. A block that would pass it is
// read and dropped, and r keeps the envelope (RowBytes set): the stream
// is still framed. A request read whole that does not decode — an
// envelope with a "rows" or "bindRows" key, in any case, is a version 2
// request, and a malformed query or atom row is a bad request too — is an
// error wrapping ErrBadRequest, and the stream is still framed. After any
// other error but io.EOF it is not, and r is zero.
func ReadRequest(br *bufio.Reader, buf []byte, limit int, r *Request) (_ []byte, err error) {
	*r = Request{}
	buf, err = appendFrame(buf[:0], br, limit)
	if err != nil {
		return buf, err
	}
	env := len(buf)
	if err := decodeRequest(buf, r); err != nil {
		return buf, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	n := r.RowBytes
	if n > limit-env {
		if _, err := br.Discard(n); err != nil {
			*r = Request{}
			return buf, unexpected(err)
		}
		return buf, ErrFrameTooLarge
	}
	var rows [][]string
	if n > 0 {
		if buf, err = appendBlock(buf, br, n); err != nil {
			*r = Request{}
			return buf, err
		}
		rows, err = rel.DecodeRows(buf[env:])
	}
	if err == nil {
		err = r.split(rows)
	}
	if err != nil {
		*r = Request{}
		return buf, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	return buf, nil
}

// TuplesToRows converts tuples for a response.
func TuplesToRows(ts []rel.Tuple) [][]string {
	out := make([][]string, len(ts))
	for i, t := range ts {
		out[i] = []string(t)
	}
	return out
}
