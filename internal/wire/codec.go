package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/lang"
	"repro/internal/rel"
)

// The frame codec. Every frame of the protocol — the envelope and row
// block of every request and every response — is encoded and decoded by
// hand rather than through reflection. Envelopes are byte-identical to
// encoding/json in both directions: AppendResponse and AppendRequest write
// exactly what json.Encoder.Encode writes for the envelope, and
// decodeResponse and decodeRequest yield exactly what json.Unmarshal
// yields, for every input. Only the common shape takes the hand-written
// path — the exact field names, strings without escapes, plain integers.
// Everything else (an escape, a case-variant, duplicate or unknown key,
// null, a non-integer number, a syntax error) goes to encoding/json, for
// that one value or for the whole frame, so the semantics stay
// encoding/json's without a second JSON parser. Spans ride only on final
// frames of traced requests, which always go through encoding/json. Rows,
// queries and atoms are never JSON: they travel in the row block after
// the envelope, in rel's row encoding (rel.AppendRow, rel.DecodeRows,
// Request.split).

// AppendResponse appends r's frame to dst: the envelope line, exactly the
// bytes json.Encoder.Encode writes for r with its Rows left out and, when
// block is non-empty, RowBytes set to len(block); then block itself.
// Strings are escaped HTML-safe (<, >, &, U+2028 and U+2029 as \u escapes,
// invalid UTF-8 as U+FFFD). AppendResponse reads neither r.Rows nor
// r.RowBytes: a frame's rows are the rows rel.AppendRow appended to block.
func AppendResponse(dst []byte, r *Response, block []byte) []byte {
	dst = append(dst, '{')
	open := len(dst)
	if r.Error != "" {
		dst = appendField(dst, open, `"error":`)
		dst = appendString(dst, r.Error)
	}
	if r.Busy {
		dst = appendField(dst, open, `"busy":true`)
	}
	if len(block) > 0 {
		dst = strconv.AppendInt(appendField(dst, open, `"rowBytes":`), int64(len(block)), 10)
	}
	if r.More {
		dst = appendField(dst, open, `"more":true`)
	}
	if r.Unchanged {
		dst = appendField(dst, open, `"unchanged":true`)
	}
	if len(r.Preds) > 0 {
		dst = appendStrings(appendField(dst, open, `"preds":`), r.Preds)
	}
	if len(r.Cards) > 0 {
		dst = appendInts(appendField(dst, open, `"cards":`), r.Cards)
	}
	if len(r.Gens) > 0 {
		dst = appendField(dst, open, `"gens":[`)
		for i, g := range r.Gens {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, g, 10)
		}
		dst = append(dst, ']')
	}
	if len(r.Spans) > 0 {
		// A Span holds only strings and integers, which encoding/json
		// always marshals.
		b, _ := json.Marshal(r.Spans)
		dst = append(appendField(dst, open, `"spans":`), b...)
	}
	return append(append(dst, '}', '\n'), block...)
}

// appendTermValue appends t as one value (rel.AppendValue's encoding of
// its kind byte and name, without building that string): "?" and a
// variable's name, or "=" and a constant's bytes.
func appendTermValue(block []byte, t lang.Term) []byte {
	kind := byte('?')
	if t.IsConst() {
		kind = '='
	}
	return append(append(binary.AppendUvarint(block, uint64(1+len(t.Name))), kind), t.Name...)
}

// appendAtomRow appends a's row (rel.AppendRow's encoding): its arity, its
// predicate, then one value per term.
func appendAtomRow(block []byte, a *lang.Atom) []byte {
	block = rel.AppendValue(binary.AppendUvarint(block, uint64(1+len(a.Args))), a.Pred)
	for _, t := range a.Args {
		block = appendTermValue(block, t)
	}
	return block
}

// appendQueryRows appends q's rows: the head, the body atoms, then per
// comparison a row of its operator and its two terms.
func appendQueryRows(block []byte, q *lang.CQ) []byte {
	block = appendAtomRow(block, &q.Head)
	for i := range q.Body {
		block = appendAtomRow(block, &q.Body[i])
	}
	for _, c := range q.Comps {
		block = rel.AppendValue(append(block, 3), c.Op.String())
		block = appendTermValue(appendTermValue(block, c.L), c.R)
	}
	return block
}

// appendField appends a field's key (and whatever of its value is fixed),
// preceded by a comma unless it is the first field after the brace at
// open-1.
func appendField(dst []byte, open int, key string) []byte {
	if len(dst) > open {
		dst = append(dst, ',')
	}
	return append(dst, key...)
}

// appendStrings appends ss as a JSON array of strings.
func appendStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, v := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, v)
	}
	return append(dst, ']')
}

// appendInts appends ns as a JSON array of integers.
func appendInts(dst []byte, ns []int) []byte {
	dst = append(dst, '[')
	for i, n := range ns {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	return append(dst, ']')
}

// AppendRequest appends r's frame to dst: the envelope line, exactly the
// bytes json.Encoder.Encode writes for r with Body set to the number of
// r.Query's body atoms and RowBytes to the length of the row block;
// then that block: r.Query's rows, r.Atom's row and r.Rows, in that
// order. Strings are escaped as AppendResponse escapes them. Op is always
// written; every other field only when set, as its omitempty tag says.
// AppendRequest does not read r.Body or r.RowBytes. A reader splits the
// block by op, so only an eval carries a Query and only a bind an Atom.
func AppendRequest(dst []byte, r *Request) []byte {
	// The block is written first, where the frame starts, so its length is
	// known; the envelope is then moved in front of it.
	start, body := len(dst), 0
	if r.Query != nil {
		body, dst = len(r.Query.Body), appendQueryRows(dst, r.Query)
	}
	if r.Atom != nil {
		dst = appendAtomRow(dst, r.Atom)
	}
	for _, row := range r.Rows {
		dst = rel.AppendRow(dst, row)
	}
	n := len(dst) - start
	var buf [128]byte
	env := appendRequestEnvelope(buf[:0], r, body, n)
	dst = append(dst, env...)
	copy(dst[start+len(env):], dst[start:start+n])
	copy(dst[start:], env)
	return dst
}

// appendRequestEnvelope appends r's envelope line to dst, with body and
// a block of n bytes.
func appendRequestEnvelope(dst []byte, r *Request, body, n int) []byte {
	dst = appendString(append(dst, `{"op":`...), r.Op)
	if r.V != 0 {
		dst = strconv.AppendInt(append(dst, `,"v":`...), int64(r.V), 10)
	}
	if body != 0 {
		dst = strconv.AppendInt(append(dst, `,"body":`...), int64(body), 10)
	}
	if r.Pred != "" {
		dst = appendString(append(dst, `,"pred":`...), r.Pred)
	}
	if len(r.BindCols) > 0 {
		dst = appendInts(append(dst, `,"bindCols":`...), r.BindCols)
	}
	if n > 0 {
		dst = strconv.AppendInt(append(dst, `,"rowBytes":`...), int64(n), 10)
	}
	if r.Trace != "" {
		dst = appendString(append(dst, `,"trace":`...), r.Trace)
	}
	if r.Span != 0 {
		dst = strconv.AppendUint(append(dst, `,"span":`...), r.Span, 10)
	}
	if r.IfGen != nil {
		dst = strconv.AppendUint(append(dst, `,"ifGen":`...), *r.IfGen, 10)
	}
	return append(dst, '}', '\n')
}

const hexDigits = "0123456789abcdef"

// htmlSafe reports the bytes encoding/json copies into a string unescaped
// on their own: printable ASCII except the quote, the backslash and the
// HTML-sensitive <, > and &. (A byte of a multi-byte rune is not safe on
// its own; 256 entries let a byte index the table unchecked.)
var htmlSafe = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString appends s as a JSON string, escaped exactly as
// encoding/json escapes it with HTML escaping on.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if htmlSafe[s[i]] {
			i++
			continue
		}
		if b := s[i]; b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// The other control bytes, and <, > and &.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if c == 0x2028 || c == 0x2029 { // LINE and PARAGRAPH SEPARATOR
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// errVersion1 reports a response envelope with a "rows" key: the frame
// of a peer that speaks protocol version 1, which sent rows as JSON.
var errVersion1 = fmt.Errorf(`wire: response frame carries JSON "rows", a protocol version 1 frame; this peer speaks version %d`, Version)

// decodeResponse decodes one response envelope (without its newline) into
// r, overwriting it: afterwards r holds exactly what json.Unmarshal(frame,
// r) leaves in a zero Response, and the error is nil exactly when
// json.Unmarshal's is — except that a "rows" key, in any case, is
// errVersion1 and a negative rowBytes is an error. The result does not
// alias frame.
func decodeResponse(frame []byte, r *Response) error {
	*r = Response{}
	p := scanner{s: string(frame), b: frame}
	v1 := false
	ok := p.response(r, &v1)
	switch {
	case v1:
		*r = Response{}
		return errVersion1
	case ok:
		return nil
	}
	// Off the hand-written path. The outer Rows shadows Response.Rows, so
	// a "rows" key in any case lands in it, present even when null.
	*r = Response{}
	env := struct {
		*Response
		Rows json.RawMessage `json:"rows"`
	}{Response: r}
	err := json.Unmarshal(frame, &env)
	switch {
	case err != nil:
	case env.Rows != nil:
		err = errVersion1
	case r.RowBytes < 0:
		err = fmt.Errorf("wire: negative rowBytes %d", r.RowBytes)
	default:
		return nil
	}
	*r = Response{}
	return err
}

// Field indexes of Response, positions in responseKeys.
const (
	fieldError = iota
	fieldBusy
	fieldRows
	fieldRowBytes
	fieldMore
	fieldUnchanged
	fieldPreds
	fieldCards
	fieldGens
)

// responseKeys leaves "spans" out: a traced final frame is rare, so the
// whole of it goes through encoding/json.
var responseKeys = []string{"error", "busy", "rows", "rowBytes", "more", "unchanged", "preds", "cards", "gens"}

// response is decodeResponse's hand-written path. It reports false
// whenever the frame leaves its common shape, and sets *v1 on a "rows"
// key.
func (p *scanner) response(r *Response, v1 *bool) bool {
	p.space()
	return p.object(responseKeys, func(f int) (ok bool) {
		switch f {
		case fieldError:
			// Error and Preds outlive the frame (in error messages and the
			// executor's estimates), so they get strings of their own.
			var v string
			if v, ok = p.str(); ok {
				r.Error = strings.Clone(v)
			}
		case fieldBusy:
			r.Busy, ok = p.boolean()
		case fieldRows:
			*v1 = true
		case fieldRowBytes:
			var n uint64
			n, ok = p.digits(18)
			r.RowBytes = int(n)
		case fieldMore:
			r.More, ok = p.boolean()
		case fieldUnchanged:
			r.Unchanged, ok = p.boolean()
		case fieldPreds:
			if r.Preds, ok = p.strs(make([]string, 0)); ok {
				for i, v := range r.Preds {
					r.Preds[i] = strings.Clone(v)
				}
			}
		case fieldCards:
			r.Cards, ok = p.ints()
		case fieldGens:
			r.Gens, ok = p.uints()
		}
		return ok
	}) && p.end()
}

// split takes an eval's query and a bind's atom off the front of a
// request's rows, lowered to lang values, and leaves the rest in r.Rows:
// an eval's block is the head row, r.Body body-atom rows and the
// comparison rows; a bind's is the atom row and the key rows. Only a
// request of this version is split, so one of another version keeps its
// rows whole and a server answers it with the version error. The terms of
// a query's atoms share one slice, each atom's capped at its end, and
// every string is a substring of the block's.
func (r *Request) split(rows [][]string) (err error) {
	if r.V == Version {
		switch r.Op {
		case "eval":
			if r.Body < 0 || r.Body > max(len(rows)-1, 0) {
				return fmt.Errorf("wire: eval query of %d body atoms in %d rows", r.Body, len(rows))
			}
			if len(rows) > 0 {
				r.Query, err = lowerQuery(rows, r.Body)
			}
			return err
		case "bind":
			if len(rows) > 0 {
				a, _, err := lowerAtom(rows[0], make([]lang.Term, 0, max(len(rows[0])-1, 0)))
				if err != nil {
					return err
				}
				r.Atom, rows = &a, rows[1:]
			}
		}
	}
	if len(rows) > 0 {
		r.Rows = rows
	}
	return nil
}

// lowerQuery lowers an eval's rows: the head, body body atoms, then the
// comparisons.
func lowerQuery(rows [][]string, body int) (*lang.CQ, error) {
	atoms, comps := rows[:1+body], rows[1+body:]
	n := 0
	for _, row := range atoms {
		n += max(len(row)-1, 0)
	}
	terms := make([]lang.Term, 0, n)
	q := new(lang.CQ)
	var err error
	if q.Head, terms, err = lowerAtom(atoms[0], terms); err != nil {
		return nil, err
	}
	if body > 0 {
		q.Body = make([]lang.Atom, body)
		for i, row := range atoms[1:] {
			if q.Body[i], terms, err = lowerAtom(row, terms); err != nil {
				return nil, err
			}
		}
	}
	if len(comps) > 0 {
		q.Comps = make([]lang.Comparison, len(comps))
		for i, row := range comps {
			if q.Comps[i], err = lowerComparison(row); err != nil {
				return nil, err
			}
		}
	}
	return q, nil
}

// lowerAtom lowers an atom row, appending its terms to terms.
func lowerAtom(row []string, terms []lang.Term) (lang.Atom, []lang.Term, error) {
	if len(row) == 0 {
		return lang.Atom{}, terms, errors.New("wire: empty atom row")
	}
	start := len(terms)
	for _, v := range row[1:] {
		t, err := lowerTerm(v)
		if err != nil {
			return lang.Atom{}, terms, err
		}
		terms = append(terms, t)
	}
	return lang.Atom{Pred: row[0], Args: terms[start:len(terms):len(terms)]}, terms, nil
}

// lowerComparison lowers a comparison row: the operator as
// lang.CompOp.String spells it, then the left and the right term.
func lowerComparison(row []string) (lang.Comparison, error) {
	if len(row) != 3 {
		return lang.Comparison{}, fmt.Errorf("wire: comparison row of %d values, want 3", len(row))
	}
	op := lang.OpEQ
	for op <= lang.OpGE && op.String() != row[0] {
		op++
	}
	if op > lang.OpGE {
		return lang.Comparison{}, fmt.Errorf("wire: unknown comparison operator %.8q", row[0])
	}
	l, err := lowerTerm(row[1])
	if err != nil {
		return lang.Comparison{}, err
	}
	r, err := lowerTerm(row[2])
	return lang.Comparison{Op: op, L: l, R: r}, err
}

// lowerTerm lowers one term value: "?" and a variable's name, or "=" and
// a constant's bytes.
func lowerTerm(v string) (lang.Term, error) {
	if v != "" {
		switch v[0] {
		case '?':
			return lang.Var(v[1:]), nil
		case '=':
			return lang.Const(v[1:]), nil
		}
	}
	return lang.Term{}, fmt.Errorf("wire: term %.8q is neither ?variable nor =constant", v)
}

// errJSONRows reports a request envelope with a "rows" or "bindRows" key,
// as versions 1 and 2 sent rows.
var errJSONRows = fmt.Errorf(`wire: request carries its rows as JSON, a protocol version 2 request; this peer speaks version %d`, Version)

// decodeRequest decodes one request envelope (without its newline) into
// r, overwriting it: afterwards r holds exactly what json.Unmarshal(frame,
// r) leaves in a zero Request, and the error is exactly json.Unmarshal's —
// except that a "rows" or "bindRows" key, in any case, is errJSONRows and
// a negative rowBytes is an error. The result does not alias frame. Op is
// a substring of one string holding the frame, so whoever keeps it past
// the request copies it; Pred and Trace, which a server keeps, get their
// own allocations.
func decodeRequest(frame []byte, r *Request) error {
	*r = Request{}
	p := scanner{s: string(frame), b: frame}
	p.space()
	if p.request(r) && p.end() {
		return nil
	}
	// Off the hand-written path, which a "rows" or "bindRows" key leaves
	// too: the outer fields catch one in any case, even when null.
	*r = Request{}
	env := struct {
		*Request
		Rows     json.RawMessage `json:"rows"`
		BindRows json.RawMessage `json:"bindRows"`
	}{Request: r}
	err := json.Unmarshal(frame, &env)
	switch {
	case err != nil:
	case env.Rows != nil || env.BindRows != nil:
		err = errJSONRows
	case r.RowBytes < 0:
		err = fmt.Errorf("wire: negative rowBytes %d", r.RowBytes)
	default:
		return nil
	}
	*r = Request{}
	return err
}

// Field indexes of Request, positions in requestKeys.
const (
	reqOp = iota
	reqV
	reqBody
	reqPred
	reqBindCols
	reqRowBytes
	reqTrace
	reqSpan
	reqIfGen
)

var requestKeys = []string{"op", "v", "body", "pred", "bindCols", "rowBytes", "trace", "span", "ifGen"}

// request is decodeRequest's hand-written path.
func (p *scanner) request(r *Request) bool {
	return p.object(requestKeys, func(f int) (ok bool) {
		var v string
		var n uint64
		switch f {
		case reqOp:
			r.Op, ok = p.str()
		case reqV:
			n, ok = p.digits(18)
			r.V = int(n)
		case reqBody:
			n, ok = p.digits(18)
			r.Body = int(n)
		case reqPred:
			v, ok = p.str()
			r.Pred = strings.Clone(v)
		case reqBindCols:
			r.BindCols, ok = p.ints()
		case reqRowBytes:
			n, ok = p.digits(18)
			r.RowBytes = int(n)
		case reqTrace:
			v, ok = p.str()
			r.Trace = strings.Clone(v)
		case reqSpan:
			r.Span, ok = p.digits(19)
		case reqIfGen:
			r.IfGen = new(uint64)
			*r.IfGen, ok = p.digits(19)
		}
		return ok
	})
}

// scanner walks one frame. s and b hold the same bytes: decoded strings
// are substrings of s, and b hands a value to encoding/json uncopied.
type scanner struct {
	s string
	b []byte
	i int
}

func (p *scanner) space() {
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c if it is next.
func (p *scanner) eat(c byte) bool {
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (p *scanner) end() bool {
	p.space()
	return p.i == len(p.s)
}

// object consumes an object whose keys are all among keys, each at most
// once, handing the value of keys[i] to field(i) with the scanner at its
// first byte. A key outside keys — escaped, case-variant or unknown — or a
// repeated one stops the hand-written path, as does a false from field.
// keys holds at most 16 names.
func (p *scanner) object(keys []string, field func(i int) bool) bool {
	if !p.eat('{') {
		return false
	}
	p.space()
	if p.eat('}') {
		return true
	}
	var seen uint16
	for {
		i := p.key(keys)
		if i < 0 || seen&(1<<i) != 0 {
			return false
		}
		seen |= 1 << i
		p.space()
		if !p.eat(':') {
			return false
		}
		p.space()
		if !field(i) {
			return false
		}
		p.space()
		if p.eat('}') {
			return true
		}
		if !p.eat(',') {
			return false
		}
		p.space()
	}
}

// key consumes an object key and its quotes, returning its index in keys,
// or -1 for a key that is not exactly one of them.
func (p *scanner) key(keys []string) int {
	if !p.eat('"') {
		return -1
	}
	start := p.i
	for p.i < len(p.s) && p.s[p.i] != '"' && p.s[p.i] != '\\' {
		p.i++
	}
	if !p.eat('"') {
		return -1
	}
	return slices.Index(keys, p.s[start:p.i-1])
}

// plain reports the ASCII bytes a JSON string carries verbatim: everything
// but the control bytes, the quote and the backslash. (Bytes from 0x80 up
// are checked as UTF-8; 256 entries let a byte index the table unchecked.)
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str consumes a string. One without escapes and of valid UTF-8 — what
// encoding/json would copy verbatim too — is a substring of the frame;
// any other goes through encoding/json on its own.
func (p *scanner) str() (string, bool) {
	if !p.eat('"') {
		return "", false
	}
	start := p.i
	for p.i < len(p.s) {
		c := p.s[p.i]
		if plain[c] {
			p.i++
			continue
		}
		if c < utf8.RuneSelf {
			if c == '"' {
				p.i++
				return p.s[start : p.i-1], true
			}
			break
		}
		r, size := utf8.DecodeRuneInString(p.s[p.i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		p.i += size
	}
	// An escape, a control byte or invalid UTF-8: find the closing quote
	// and let encoding/json unquote the token.
	for p.i < len(p.s) && p.s[p.i] != '"' {
		if p.s[p.i] == '\\' {
			p.i++
		}
		p.i++
	}
	if !p.eat('"') {
		return "", false
	}
	var v string
	if json.Unmarshal(p.b[start-1:p.i], &v) != nil {
		return "", false
	}
	return v, true
}

// strs consumes an array of strings, appending its values to vals.
func (p *scanner) strs(vals []string) ([]string, bool) {
	if !p.eat('[') {
		return vals, false
	}
	p.space()
	if p.eat(']') {
		return vals, true
	}
	for {
		v, ok := p.str()
		if !ok {
			return vals, false
		}
		vals = append(vals, v)
		p.space()
		if p.eat(']') {
			return vals, true
		}
		if !p.eat(',') {
			return vals, false
		}
		p.space()
	}
}

func (p *scanner) boolean() (bool, bool) {
	rest := p.s[p.i:]
	switch {
	case strings.HasPrefix(rest, "true"):
		p.i += len("true")
		return true, true
	case strings.HasPrefix(rest, "false"):
		p.i += len("false")
		return false, true
	}
	return false, false
}

// digits consumes a plain unsigned integer of at most max digits: no sign,
// fraction, exponent or leading zero (a longer one falls back, so the
// value cannot overflow).
func (p *scanner) digits(max int) (uint64, bool) {
	start := p.i
	var n uint64
	for p.i < len(p.s) && p.s[p.i] >= '0' && p.s[p.i] <= '9' {
		n = n*10 + uint64(p.s[p.i]-'0')
		p.i++
	}
	l := p.i - start
	return n, l > 0 && l <= max && (l == 1 || p.s[start] != '0')
}

// ints consumes an array of plain integers, as []int.
func (p *scanner) ints() ([]int, bool) {
	out := make([]int, 0)
	ok := p.array(func() bool {
		neg := p.eat('-')
		n, ok := p.digits(18)
		if neg {
			out = append(out, -int(n))
		} else {
			out = append(out, int(n))
		}
		return ok
	})
	return out, ok
}

// uints consumes an array of plain non-negative integers, as []uint64.
func (p *scanner) uints() ([]uint64, bool) {
	out := make([]uint64, 0)
	ok := p.array(func() bool {
		n, ok := p.digits(19)
		out = append(out, n)
		return ok
	})
	return out, ok
}

// array consumes an array whose elements elem consumes.
func (p *scanner) array(elem func() bool) bool {
	if !p.eat('[') {
		return false
	}
	p.space()
	if p.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		p.space()
		if p.eat(']') {
			return true
		}
		if !p.eat(',') {
			return false
		}
		p.space()
	}
}
