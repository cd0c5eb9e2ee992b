// Package wire defines the JSON message format peers use on the network:
// serializable forms of terms, atoms, conjunctive queries and tuples, plus
// the request/response envelopes of the peer protocol.
//
// The protocol is newline-delimited JSON over TCP: one request per line,
// answered by a *stream* of one or more response frames. Six request
// kinds:
//
//	{"op":"eval", "query":{…}}        evaluate a CQ over this peer's stored
//	                                  relations, returning the head tuples
//	{"op":"scan", "pred":"FH.doc"}    return all tuples of one relation
//	{"op":"catalog"}                  list the stored relations served here,
//	                                  with their current cardinalities and
//	                                  per-relation generations
//	{"op":"bind", "atom":{…},         bind-join probe: return the distinct
//	 "bindCols":[…], "bindRows":[…]}  tuples of the atom's relation that
//	                                  match the atom's constants and, at the
//	                                  bindCols positions, any one of the
//	                                  shipped bindRows key batches
//	{"op":"ping"}                     no-op liveness probe
//	{"op":"add", "pred":"FH.doc",     insert a batch of tuples into one
//	 "rows":[[…]]}                    stored relation (creating it on first
//	                                  use) — the mutation half of mixed
//	                                  read/write workloads
//
// A server under admission control may answer any request with a *busy*
// error frame ({"error":…,"busy":true}): the request was shed before doing
// any work and is safe to retry after a backoff — the connection stays
// usable.
//
// Responses are chunked: a row-bearing op (eval, scan, bind) answers with
// zero or more non-final frames {"rows":[…],"more":true} — each bounded in
// rows and bytes, so neither side ever frames an answer-sized message —
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
// reflection: AppendRequest and DecodeRequest encode and decode a request,
// AppendResponse and Decoder a response frame, and AppendFrame reads
// either into a reused buffer. The codec is byte-identical to
// encoding/json in both directions — it writes what json.Encoder writes
// and yields what json.Unmarshal yields, handing anything outside the
// common shape to encoding/json itself. Its row halves, AppendRow and
// DecodeRow, also encode the segment journal's tuples (internal/store).
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

	"repro/internal/lang"
	"repro/internal/rel"
)

// Term is the serializable form of lang.Term.
type Term struct {
	// Kind is "var" or "const".
	Kind string `json:"k"`
	// Value is the variable name or constant lexical value.
	Value string `json:"v"`
}

// FromTerm converts a lang.Term.
func FromTerm(t lang.Term) Term {
	k := "var"
	if t.IsConst() {
		k = "const"
	}
	return Term{Kind: k, Value: t.Name}
}

// ToTerm converts back to lang.Term.
func (t Term) ToTerm() (lang.Term, error) {
	switch t.Kind {
	case "var":
		return lang.Var(t.Value), nil
	case "const":
		return lang.Const(t.Value), nil
	default:
		return lang.Term{}, fmt.Errorf("wire: bad term kind %q", t.Kind)
	}
}

// Atom is the serializable form of lang.Atom.
type Atom struct {
	Pred string `json:"p"`
	Args []Term `json:"a"`
}

// FromAtom converts a lang.Atom.
func FromAtom(a lang.Atom) Atom {
	out := Atom{Pred: a.Pred, Args: make([]Term, len(a.Args))}
	for i, t := range a.Args {
		out.Args[i] = FromTerm(t)
	}
	return out
}

// ToAtom converts back to lang.Atom.
func (a Atom) ToAtom() (lang.Atom, error) {
	out := lang.Atom{Pred: a.Pred, Args: make([]lang.Term, len(a.Args))}
	for i, t := range a.Args {
		lt, err := t.ToTerm()
		if err != nil {
			return lang.Atom{}, err
		}
		out.Args[i] = lt
	}
	return out, nil
}

// Comparison is the serializable form of lang.Comparison.
type Comparison struct {
	Op string `json:"op"` // "=", "!=", "<", "<=", ">", ">="
	L  Term   `json:"l"`
	R  Term   `json:"r"`
}

var opNames = map[lang.CompOp]string{
	lang.OpEQ: "=", lang.OpNE: "!=", lang.OpLT: "<",
	lang.OpLE: "<=", lang.OpGT: ">", lang.OpGE: ">=",
}

var opValues = map[string]lang.CompOp{
	"=": lang.OpEQ, "!=": lang.OpNE, "<": lang.OpLT,
	"<=": lang.OpLE, ">": lang.OpGT, ">=": lang.OpGE,
}

// FromComparison converts a lang.Comparison.
func FromComparison(c lang.Comparison) Comparison {
	return Comparison{Op: opNames[c.Op], L: FromTerm(c.L), R: FromTerm(c.R)}
}

// ToComparison converts back to lang.Comparison.
func (c Comparison) ToComparison() (lang.Comparison, error) {
	op, ok := opValues[c.Op]
	if !ok {
		return lang.Comparison{}, fmt.Errorf("wire: bad comparison op %q", c.Op)
	}
	l, err := c.L.ToTerm()
	if err != nil {
		return lang.Comparison{}, err
	}
	r, err := c.R.ToTerm()
	if err != nil {
		return lang.Comparison{}, err
	}
	return lang.Comparison{Op: op, L: l, R: r}, nil
}

// CQ is the serializable form of lang.CQ.
type CQ struct {
	Head  Atom         `json:"head"`
	Body  []Atom       `json:"body"`
	Comps []Comparison `json:"comps,omitempty"`
}

// FromCQ converts a lang.CQ.
func FromCQ(q lang.CQ) CQ {
	out := CQ{Head: FromAtom(q.Head)}
	for _, a := range q.Body {
		out.Body = append(out.Body, FromAtom(a))
	}
	for _, c := range q.Comps {
		out.Comps = append(out.Comps, FromComparison(c))
	}
	return out
}

// ToCQ converts back to lang.CQ.
func (q CQ) ToCQ() (lang.CQ, error) {
	head, err := q.Head.ToAtom()
	if err != nil {
		return lang.CQ{}, err
	}
	out := lang.CQ{Head: head}
	for _, a := range q.Body {
		la, err := a.ToAtom()
		if err != nil {
			return lang.CQ{}, err
		}
		out.Body = append(out.Body, la)
	}
	for _, c := range q.Comps {
		lc, err := c.ToComparison()
		if err != nil {
			return lang.CQ{}, err
		}
		out.Comps = append(out.Comps, lc)
	}
	return out, nil
}

// Request is one protocol request.
type Request struct {
	// Op is "eval", "scan", "catalog", "bind", "add" or "ping".
	Op string `json:"op"`
	// Query is the CQ for eval.
	Query *CQ `json:"query,omitempty"`
	// Pred is the relation for scan and add.
	Pred string `json:"pred,omitempty"`
	// Rows is the batch of tuples an add request inserts into Pred.
	Rows [][]string `json:"rows,omitempty"`
	// Atom is the atom to probe for bind: constant arguments are pushed
	// down as selections; variable arguments are unconstrained unless their
	// position appears in BindCols.
	Atom *Atom `json:"atom,omitempty"`
	// BindCols lists the variable positions of Atom bound by BindRows.
	BindCols []int `json:"bindCols,omitempty"`
	// BindRows is one batch of bound join keys: each row supplies one value
	// per BindCols entry. A tuple matches the batch when its projection onto
	// BindCols equals at least one row.
	BindRows [][]string `json:"bindRows,omitempty"`
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

// Span is the serializable form of one server-side trace span, shipped on
// the final frame of a traced request. IDs are scoped to this response:
// Parent references either another span in the same Spans slice or the
// request's Span field.
type Span struct {
	ID     uint64     `json:"id"`
	Parent uint64     `json:"parent,omitempty"`
	Name   string     `json:"name"`
	Start  int64      `json:"start,omitempty"` // UnixNano, serving peer's clock
	Dur    int64      `json:"dur"`             // nanoseconds
	Attrs  []SpanAttr `json:"attrs,omitempty"`
}

// SpanAttr is one key/value annotation on a Span.
type SpanAttr struct {
	K string `json:"k"`
	V string `json:"v"`
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
	// Rows carries one bounded chunk of eval/scan/bind results.
	Rows [][]string `json:"rows,omitempty"`
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
	// and only when the server sampled it. Clients that predate the field
	// ignore it.
	Spans []Span `json:"spans,omitempty"`
}

// ErrFrameTooLarge is returned by ReadFrame when one line exceeds the
// caller's limit. The oversized line has been consumed through its
// newline, so the stream is still framed and usable.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// DefaultMaxFrame is the sanity ceiling ReadFrame callers use by default.
// It bounds a single *line*, not a result: chunked responses keep normal
// frames near ChunkMaxBytes, so only a pathological or hostile peer ever
// approaches it.
const DefaultMaxFrame = 1 << 30

// ChunkMaxRows and ChunkMaxBytes bound one response chunk: a frame is
// flushed once it holds ChunkMaxRows rows or its rows total at least
// ChunkMaxBytes of values. Both sides therefore buffer O(chunk), never
// O(result).
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
	return AppendFrame(nil, br, max)
}

// AppendFrame is ReadFrame appending the frame to dst, so a caller can
// reuse one buffer across frames. On error it returns dst unextended.
func AppendFrame(dst []byte, br *bufio.Reader, max int) ([]byte, error) {
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
				if errors.Is(err, io.EOF) {
					return dst, io.ErrUnexpectedEOF
				}
				return dst, err
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

// TuplesToRows converts tuples for a response.
func TuplesToRows(ts []rel.Tuple) [][]string {
	out := make([][]string, len(ts))
	for i, t := range ts {
		out[i] = []string(t)
	}
	return out
}
