// Package wire defines the message format peers use on the network: the
// frames of the peer protocol, their envelopes, and the rows of requests
// and responses, which carry the queries and atoms of requests too.
//
// The protocol (version 5, Version) runs over TCP: one request frame at a
// time, answered by a *stream* of one or more response frames. Six request
// kinds, by the envelope's "op":
//
//	eval   body=B + query rows    evaluate a CQ over this peer's stored
//	                              relations, returning the head tuples
//	scan   pred=FH.doc            return all tuples of one relation
//	catalog                       list the stored relations served here,
//	                              with their current cardinalities and
//	                              per-relation generations
//	bind   bindCols=[…] + atom    bind-join probe: return the distinct
//	       row + key rows         tuples of the atom's relation that
//	                              match the atom's constants and, at the
//	                              bindCols positions, any one of the
//	                              shipped key rows
//	ping                          no-op liveness probe
//	add    pred=FH.doc + tuples   insert a batch of tuples into one
//	                              stored relation (creating it on first
//	                              use) — the mutation half of mixed
//	                              read/write workloads
//
// Requests and responses share one frame shape: the version byte, then
// uvarint(n), then n bytes of row block — package rel's row encoding: per
// row uvarint(arity), then per value uvarint(len) and the value's bytes.
// Row 0 of the block is the frame's envelope: key/value pairs, a reader
// skipping any key it does not know. The other rows are the frame's rows.
// Values cross the wire byte for byte, whatever they hold. An eval's query
// and a bind's atom are rows too: an atom is the predicate and one value
// per term, a variable as "?" and its name, a constant as "=" and its
// bytes; a comparison is its operator and its two terms. A row of the
// block is also the payload of a segment journal's tuple frame
// (internal/store).
//
// A server under admission control may answer any request with a *busy*
// error frame (error and busy set): the request was shed before doing any
// work and is safe to retry after a backoff — the connection stays usable.
//
// Responses are chunked: a row-bearing op (eval, scan, bind) answers with
// zero or more non-final frames (more set) — each bounded in rows and
// bytes, so neither side ever frames an answer-sized message — followed by
// exactly one final frame (no more) that carries any trailing rows plus,
// piggybacked, the current cardinalities *and per-relation generations*
// of the relations the request touched (preds/cards/gens). The querying
// executor folds the cardinalities into its join-order estimates and
// stamps its cached fragments with the generations. A scan, bind or
// one-relation eval may carry ifGen, the generation of the caller's cached
// copy: while the relation's generation still equals it, the server
// answers one final frame with unchanged set and no rows, so validating a
// cached fragment costs no extra round trip. An error frame is always
// final and may arrive mid-stream, in which case the rows already received
// must be discarded. Single-frame ops (catalog, ping, add, errors) are
// just a stream of length one.
//
// The bind op is the semi-join half of cross-peer bind-join execution: the
// querying peer ships the distinct join-key values it has bound so far
// (in batches) instead of pulling the whole selection-pushed relation, and
// the serving peer answers each batch from its hash indexes. The server
// answers a connection's requests strictly in order, so frames never
// interleave across requests; the reference client sends one request at a
// time.
//
// AppendRequest and ReadRequest write and read a request frame (and
// ReadRequest lowers its query and atom rows to lang values),
// AppendResponse and ReadResponse a response frame. The block is rel's row
// encoding, which rel alone decodes (rel.DecodeRows, rel.DecodeRow) and
// writes (rel.AppendRow, rel.AppendValue): a relation stores each row in
// it and the journal frames a stored row as it is, so this package keeps
// only the envelope's keys and the lowering of query and atom rows.
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
	"math"
	"slices"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rel"
)

// Version is the protocol version this package speaks, the first byte of
// every frame. Versions 1 to 4 framed every message as a JSON line, so
// their frames start with '{'.
const Version = 5

// Request is one protocol request.
type Request struct {
	// Op is "eval", "scan", "catalog", "bind", "add" or "ping".
	Op string
	// Query is the CQ for eval. It travels as rows of the frame, never in
	// the envelope: the head row, Body body-atom rows, then one row per
	// comparison.
	Query *lang.CQ
	// Body is the number of body-atom rows of an eval's query. AppendRequest
	// writes it from Query, and ReadRequest splits the rows by it.
	Body int
	// Pred is the relation for scan and add.
	Pred string
	// Atom is the atom to probe for bind: constant arguments are pushed
	// down as selections; variable arguments are unconstrained unless their
	// position appears in BindCols. It is the frame's first row after the
	// envelope, ahead of the key rows.
	Atom *lang.Atom
	// BindCols lists the variable positions of Atom bound by a bind
	// request's key rows.
	BindCols []int
	// Rows are an add request's tuples, inserted into Pred, or one batch of
	// a bind request's join keys, one value per BindCols entry: a tuple
	// matches the batch when its projection onto BindCols equals a row.
	// They travel as rows of the frame, never in the envelope.
	Rows [][]string
	// Trace optionally carries the caller's trace ID. A server that
	// understands it times the request's server-side work and ships the
	// resulting spans back on the final response frame; a server that does
	// not skips the key, which simply leaves the caller's trace without
	// remote detail.
	Trace string
	// Span is the caller-side span ID the returned remote spans should be
	// parented under. Meaningful only with Trace set.
	Span uint64
	// IfGen, when present, makes a request that reads exactly one relation
	// (scan, bind, an eval over one relation) conditional: if the relation's
	// generation still equals *IfGen, the server answers one final frame
	// with the metadata and Unchanged set, and no rows. Presence, not
	// value, marks the request — generation 0 is a valid stamp.
	IfGen *uint64
}

// Response is one frame of a protocol response stream. Row-bearing ops
// answer with zero or more non-final frames (More set) followed by one
// final frame; every other op answers with a single final frame.
type Response struct {
	// Error is non-empty on failure; other fields (except Busy) are then
	// unset. An error frame is always final and may arrive mid-stream,
	// superseding any rows already received for the request.
	Error string
	// Busy marks an error frame as an admission-control shed: the server
	// refused to start the request because its in-flight limit and wait
	// queue were exhausted. The request had no effect and is safe to retry
	// after a backoff; the connection remains usable. Meaningful only with
	// Error set.
	Busy bool
	// Rows carries one bounded chunk of eval/scan/bind results: the
	// frame's rows after its envelope. The JSON tag serves only
	// cmd/bench's probeWire, which marshals a Response through
	// encoding/json itself.
	Rows [][]string `json:"rows,omitempty"`
	// More marks a non-final frame: further frames for the same request
	// follow on the stream.
	More bool
	// Unchanged marks the final frame answering a request whose IfGen
	// equals the relation's current generation: the caller's cached rows
	// are still complete, so none were produced. A receiver ignores any
	// rows such a frame carries.
	Unchanged bool
	// Preds carries the catalog listing and, on the final frame of eval/
	// scan/bind responses, the names of the relations the request touched.
	Preds []string
	// Cards carries cardinalities parallel to Preds. The executor's
	// join-order heuristic consumes them as estimates — refreshed on every
	// response, they may still go stale without affecting correctness.
	Cards []int
	// Gens carries per-relation generations (monotonic insert counters)
	// parallel to Preds. The server reads them before it produces any row
	// of the response, so each is a floor: the rows hold every matching
	// tuple of that generation, and perhaps some inserted since. Unlike
	// Cards they carry a correctness contract: a cached fragment of
	// relation R stamped with generation g holds exactly R's matching
	// tuples for as long as R's generation stays g (a generation still g
	// means no tuple was inserted after it was read), so the executor's
	// fragment cache serves an entry only after the serving peer answers a
	// fetch carrying IfGen g with Unchanged.
	Gens []uint64
	// Spans carries the serving peer's trace spans for this request,
	// present only on the final frame of a request that carried a Trace ID
	// and only when the server sampled it. IDs are scoped to this response:
	// a Parent names another span here or the request's Span. Clients that
	// predate the key skip it.
	Spans []obs.SpanData
}

// ErrFrameTooLarge is returned by ReadFrame when one line exceeds the
// caller's limit, and wrapped by the error ReadRequest and ReadResponse
// return for a frame whose length does. ReadFrame consumes the oversized
// line through its newline and ReadRequest the oversized frame, so the
// stream is still framed.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrBadRequest is wrapped by the errors ReadRequest returns for a request
// it read whole but could not decode: the stream is still framed.
var ErrBadRequest = errors.New("bad request")

// ErrVersion is wrapped by the errors ReadRequest and ReadResponse return
// for a frame whose first byte is not Version: the peer speaks another
// protocol version, and the rest of its stream cannot be framed.
var ErrVersion = errors.New("wire: protocol version mismatch")

// VersionReply is what a server writes to a peer whose request is not of
// Version before it closes the connection: one JSON error line, which a
// client of versions 1 to 4 reads as an error frame naming both versions.
var VersionReply = fmt.Sprintf(`{"error":"request of protocol version 1 to %d; this server speaks version %d"}`+"\n", Version-1, Version)

// DefaultMaxFrame is the sanity ceiling ReadFrame and ReadResponse callers
// use by default. It bounds a single frame, not a result: chunked
// responses keep normal frames near ChunkMaxBytes, so only a pathological
// or hostile peer ever approaches it.
const DefaultMaxFrame = 1 << 30

// ChunkMaxRows and ChunkMaxBytes bound one response chunk: a frame is
// flushed once it holds ChunkMaxRows rows or its rows reach ChunkMaxBytes.
// Both sides therefore buffer O(chunk), never O(result).
const (
	ChunkMaxRows  = 1024
	ChunkMaxBytes = 1 << 20
)

// ReadFrame reads one newline-terminated line from br, without the
// newline. It exists only for cmd/bench's probeWire, which times a JSON
// line through it; ROADMAP item 19's benchmark change deletes it. A line
// longer than max is consumed through its terminating newline and
// reported as ErrFrameTooLarge, so the stream remains framed. io.EOF is
// returned only at a line boundary; a partial trailing line is
// io.ErrUnexpectedEOF.
func ReadFrame(br *bufio.Reader, max int) ([]byte, error) {
	var buf []byte
	for {
		chunk, err := br.ReadSlice('\n')
		if len(chunk) > 0 && (err == nil || errors.Is(err, bufio.ErrBufferFull)) {
			if len(buf)+len(chunk) > max {
				// Keep consuming to the newline so framing survives.
				for err == nil || errors.Is(err, bufio.ErrBufferFull) {
					if n := len(chunk); n > 0 && chunk[n-1] == '\n' {
						return nil, ErrFrameTooLarge
					}
					chunk, err = br.ReadSlice('\n')
				}
				return nil, unexpected(err)
			}
			buf = append(buf, chunk...)
			if buf[len(buf)-1] == '\n' {
				return buf[:len(buf)-1], nil
			}
			continue
		}
		if errors.Is(err, io.EOF) {
			if len(buf) > 0 || len(chunk) > 0 {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, io.EOF
		}
		if err == nil {
			// ReadSlice returned no bytes and no error; never happens, but
			// avoid spinning.
			continue
		}
		return nil, err
	}
}

// unexpected turns io.EOF, met inside a frame, into io.ErrUnexpectedEOF.
func unexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readHeader reads a frame's version byte and length, appending both to
// buf[:0], and returns the length n of the row block that follows. io.EOF
// is returned only before the first byte; a length cut short is
// io.ErrUnexpectedEOF. A first byte other than Version is an error
// wrapping ErrVersion, read no further.
func readHeader(br *bufio.Reader, buf []byte) ([]byte, int, error) {
	v, err := br.ReadByte()
	if err != nil {
		return buf[:0], 0, err
	}
	buf = append(buf[:0], v)
	switch {
	case v == '{':
		return buf, 0, fmt.Errorf("%w: a JSON frame, as versions 1 to %d sent; this peer speaks version %d", ErrVersion, Version-1, Version)
	case v != Version:
		return buf, 0, fmt.Errorf("%w: a frame of version %d; this peer speaks version %d", ErrVersion, v, Version)
	}
	var n uint64
	for shift := 0; ; shift += 7 {
		c, err := br.ReadByte()
		if err != nil {
			return buf, 0, unexpected(err)
		}
		buf = append(buf, c)
		// The shortest form only, and at most math.MaxInt: a block can be
		// read and discarded only in a length an int holds.
		if shift > 56 || (shift > 0 && c == 0) {
			return buf, 0, fmt.Errorf("wire: malformed frame length % x", buf[1:])
		}
		n |= uint64(c&0x7f) << shift
		if c < 0x80 {
			break
		}
	}
	if n > math.MaxInt {
		return buf, 0, fmt.Errorf("wire: malformed frame length % x", buf[1:])
	}
	return buf, int(n), nil
}

// appendBlock appends to buf the n-byte row block that follows a frame's
// header. It reads in steps, doubling what has arrived from 64 KiB (a
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
// and returns the buffer holding the frame: its header is appended to
// buf[:0] and its row block after it, so a caller reuses one buffer across
// frames, and the buffer's length is the frame's size on the wire.
//
// limit caps the frame, header and row block. A block that would pass it
// fails before any of it is read or allocated, and the block is read in steps, so a peer
// that announces more than it sends costs at most what it sent. The rows
// are decoded as rel.DecodeRows says, so r.Rows never aliases buf, and the
// envelope's kept strings (Error, Preds, Spans) do not share the rows'
// string. io.EOF is returned only at a clean frame boundary; a frame cut
// short is io.ErrUnexpectedEOF. After an error r is zero, and after any
// error but io.EOF the stream is no longer framed.
func ReadResponse(br *bufio.Reader, buf []byte, limit int, r *Response) (_ []byte, err error) {
	*r = Response{}
	buf, n, err := readHeader(br, buf)
	if err != nil {
		return buf, err
	}
	if n > limit-len(buf) {
		return buf, fmt.Errorf("%w: a frame of %d bytes passes the %d-byte frame limit", ErrFrameTooLarge, len(buf)+n, limit)
	}
	hdr := len(buf)
	if buf, err = appendBlock(buf, br, n); err != nil {
		return buf, err
	}
	if err = r.decode(buf[hdr:]); err != nil {
		*r = Response{}
	}
	return buf, err
}

// ReadRequest is ReadResponse for a request frame, with the rows decoded
// and split as Request.split says: an eval's query and a bind's atom
// lowered to lang values, the rest in r.Rows. A frame that passes limit
// is read and dropped, and is ErrFrameTooLarge with r zero:
// the stream is still framed. A request read whole that does not decode —
// a malformed envelope, block, query or atom row — is an error wrapping
// ErrBadRequest with r zero, and the stream is still framed. After any
// other error but io.EOF it is not, and r is zero.
func ReadRequest(br *bufio.Reader, buf []byte, limit int, r *Request) (_ []byte, err error) {
	*r = Request{}
	buf, n, err := readHeader(br, buf)
	if err != nil {
		return buf, err
	}
	if n > limit-len(buf) {
		if _, err := br.Discard(n); err != nil {
			return buf, unexpected(err)
		}
		return buf, ErrFrameTooLarge
	}
	hdr := len(buf)
	if buf, err = appendBlock(buf, br, n); err != nil {
		return buf, err
	}
	if err = r.decode(buf[hdr:]); err != nil {
		*r = Request{}
		return buf, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	return buf, nil
}

// TuplesToRows converts tuples for a response. It exists only for
// cmd/bench's probeWire; ROADMAP item 19's benchmark change deletes it.
func TuplesToRows(ts []rel.Tuple) [][]string {
	out := make([][]string, len(ts))
	for i, t := range ts {
		out[i] = []string(t)
	}
	return out
}
