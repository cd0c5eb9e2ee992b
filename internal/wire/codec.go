package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rel"
)

// The frame codec. A frame is the version byte, uvarint(n) and an n-byte
// row block in rel's row encoding, and row 0 of the block is the envelope:
// key/value pairs under the field names of PROTOCOL.md, each written only
// when set. A string is its bytes; an integer is its uvarint, shortest
// form, filling the value; a flag is present with an empty value; a list
// is one value holding a nested row, one value per element; spans are one
// value holding one row per span. A reader skips any key it does not know.
// The rows after the envelope are the frame's rows: a response's answer
// rows, or a request's query, atom and key or add rows (Request.split).

// envelope appends a frame's envelope row to b, counting its values in the
// arity byte at b[at]: an envelope holds at most eight pairs, so its arity
// is one uvarint byte.
type envelope struct {
	b  []byte
	at int
}

// open starts a frame in dst: the version byte, then the envelope's arity,
// set as pairs are added. The frame's length goes in front of the arity
// once the block is written (prefixLength).
func open(dst []byte) envelope {
	dst = append(dst, Version, 0)
	return envelope{b: dst, at: len(dst) - 1}
}

func (e *envelope) str(key, v string) {
	e.b = rel.AppendValue(rel.AppendValue(e.b, key), v)
	e.b[e.at] += 2
}

func (e *envelope) flag(key string) { e.str(key, "") }

func (e *envelope) uint(key string, x uint64) {
	e.b = appendUint(rel.AppendValue(e.b, key), x)
	e.b[e.at] += 2
}

// nested appends key and, as its value, whatever value appends: a nested
// row or rows, written in place and then prefixed with their length.
func (e *envelope) nested(key string, value func([]byte) []byte) {
	e.b = rel.AppendValue(e.b, key)
	start := len(e.b)
	e.b = prefixLength(value(e.b), start, 0)
	e.b[e.at] += 2
}

// appendUint appends x as one value: its uvarint, shortest form.
func appendUint(dst []byte, x uint64) []byte {
	var v [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(v[:], x)
	return append(append(dst, byte(n)), v[:n]...)
}

// prefixLength inserts at start the uvarint of the length of dst[start:]
// plus extra, moving those bytes up by its width.
func prefixLength(dst []byte, start, extra int) []byte {
	var l [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(l[:], uint64(len(dst)-start+extra))
	dst = append(dst, l[:w]...)
	copy(dst[start+w:], dst[start:len(dst)-w])
	copy(dst[start:], l[:w])
	return dst
}

// appendInts appends ns as one nested row of integer values.
func appendInts[T int | uint64](dst []byte, ns []T) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ns)))
	for _, n := range ns {
		dst = appendUint(dst, uint64(n))
	}
	return dst
}

// appendSpans appends one row per span: id, parent, name, start, dur,
// then each attribute's key and value.
func appendSpans(dst []byte, spans []obs.SpanData) []byte {
	for _, s := range spans {
		dst = binary.AppendUvarint(dst, uint64(5+2*len(s.Attrs)))
		dst = appendUint(appendUint(dst, s.ID), s.Parent)
		dst = appendUint(appendUint(rel.AppendValue(dst, s.Name), uint64(s.Start)), uint64(s.Dur))
		for _, a := range s.Attrs {
			dst = rel.AppendValue(rel.AppendValue(dst, a.K), a.V)
		}
	}
	return dst
}

// AppendResponse appends r's frame to dst: the envelope, then block, the
// frame's rows as rel.AppendRow appended them. AppendResponse does not
// read r.Rows.
func AppendResponse(dst []byte, r *Response, block []byte) []byte {
	e := open(dst)
	if r.Error != "" {
		e.str("error", r.Error)
	}
	if r.Busy {
		e.flag("busy")
	}
	if r.More {
		e.flag("more")
	}
	if r.Unchanged {
		e.flag("unchanged")
	}
	if len(r.Preds) > 0 {
		e.nested("preds", func(b []byte) []byte { return rel.AppendRow(b, r.Preds) })
	}
	if len(r.Cards) > 0 {
		e.nested("cards", func(b []byte) []byte { return appendInts(b, r.Cards) })
	}
	if len(r.Gens) > 0 {
		e.nested("gens", func(b []byte) []byte { return appendInts(b, r.Gens) })
	}
	if len(r.Spans) > 0 {
		e.nested("spans", func(b []byte) []byte { return appendSpans(b, r.Spans) })
	}
	return append(prefixLength(e.b, e.at, len(block)), block...)
}

// AppendRequest appends r's frame to dst: the envelope, with body the
// number of r.Query's body atoms, then r.Query's rows, r.Atom's row and
// r.Rows, in that order. Op is always written; every other field only when
// set. AppendRequest does not read r.Body. A reader splits the rows by op,
// so only an eval carries a Query and only a bind an Atom.
func AppendRequest(dst []byte, r *Request) []byte {
	e := open(dst)
	e.str("op", r.Op)
	if r.Query != nil && len(r.Query.Body) > 0 {
		e.uint("body", uint64(len(r.Query.Body)))
	}
	if r.Pred != "" {
		e.str("pred", r.Pred)
	}
	if len(r.BindCols) > 0 {
		e.nested("bindCols", func(b []byte) []byte { return appendInts(b, r.BindCols) })
	}
	if r.Trace != "" {
		e.str("trace", r.Trace)
	}
	if r.Span != 0 {
		e.uint("span", r.Span)
	}
	if r.IfGen != nil {
		e.uint("ifGen", *r.IfGen)
	}
	dst = e.b
	if r.Query != nil {
		dst = appendQueryRows(dst, r.Query)
	}
	if r.Atom != nil {
		dst = appendAtomRow(dst, r.Atom)
	}
	for _, row := range r.Rows {
		dst = rel.AppendRow(dst, row)
	}
	return prefixLength(dst, e.at, 0)
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

// decodeFrame decodes a frame's row block into its envelope's key/value
// pairs, appended to env, and the frame's rows. The envelope is decoded on
// its own, so the rows' values and row slices hold the rows alone. Every
// value is a substring of one string holding the block (rel.DecodeRows).
func decodeFrame(block []byte, env []string) ([]string, [][]string, error) {
	if len(block) == 0 {
		return nil, nil, errors.New("wire: frame without an envelope")
	}
	n := rowEnd(block)
	if n < 0 {
		return nil, nil, rel.ErrBadBlock
	}
	s := string(block)
	env, err := rel.DecodeRow(s[:n], env)
	switch {
	case err != nil:
		return nil, nil, err
	case len(env)%2 != 0:
		return nil, nil, fmt.Errorf("wire: envelope of %d values", len(env))
	case n == len(s):
		return env, nil, nil
	}
	rows, err := rel.DecodeRows(s[n:])
	return env, rows, err
}

// rowEnd returns the length of the row that block opens with, or -1 when
// block does not open with a whole row. It checks only the lengths:
// rel.DecodeRow checks the rest.
func rowEnd(block []byte) int {
	arity, i := binary.Uvarint(block)
	if i <= 0 {
		return -1
	}
	for ; arity > 0; arity-- {
		n, w := binary.Uvarint(block[i:])
		if w <= 0 || n > uint64(len(block)-i-w) {
			return -1
		}
		i += w + int(n)
	}
	return i
}

// errValue reports a value that is not what its key holds.
func errValue(key string) error {
	return fmt.Errorf("wire: malformed %q value", key)
}

// uintValue decodes an integer value: its uvarint, shortest form, filling
// the value.
func uintValue(v string) (uint64, bool) {
	if len(v) > binary.MaxVarintLen64 {
		return 0, false
	}
	x, n := binary.Uvarint([]byte(v))
	return x, n == len(v) && n > 0 && (n == 1 || v[n-1] != 0)
}

// intsValue decodes a nested row of integer values.
func intsValue[T int | uint64](v string) ([]T, bool) {
	var scratch [8]string
	vals, err := rel.DecodeRow(v, scratch[:0])
	if err != nil {
		return nil, false
	}
	ns := make([]T, len(vals))
	for i, s := range vals {
		x, ok := uintValue(s)
		if !ok {
			return nil, false
		}
		ns[i] = T(x)
	}
	return ns, true
}

// spansValue decodes the rows of a spans value. Their strings are
// substrings of one copy of the value, which the caller may keep without
// pinning the frame.
func spansValue(v string) ([]obs.SpanData, bool) {
	rows, err := rel.DecodeRows([]byte(v))
	if err != nil {
		return nil, false
	}
	spans := make([]obs.SpanData, len(rows))
	for i, row := range rows {
		if len(row) < 5 || len(row)%2 != 1 {
			return nil, false
		}
		var n [4]uint64
		for j, k := range [4]int{0, 1, 3, 4} {
			var ok bool
			if n[j], ok = uintValue(row[k]); !ok {
				return nil, false
			}
		}
		s := &spans[i]
		*s = obs.SpanData{ID: n[0], Parent: n[1], Name: row[2], Start: int64(n[2]), Dur: int64(n[3])}
		if attrs := row[5:]; len(attrs) > 0 {
			s.Attrs = make([]obs.Attr, len(attrs)/2)
			for j := range s.Attrs {
				s.Attrs[j] = obs.Attr{K: attrs[2*j], V: attrs[2*j+1]}
			}
		}
	}
	return spans, true
}

// decode decodes a response frame's row block into r, which is zero. Error
// and Preds outlive the frame (in error messages and the executor's
// estimates), so they get strings of their own.
func (r *Response) decode(block []byte) error {
	var scratch [16]string
	env, rows, err := decodeFrame(block, scratch[:0])
	if err != nil {
		return err
	}
	r.Rows = rows
	for i := 0; i < len(env); i += 2 {
		key, v := env[i], env[i+1]
		ok := true
		switch key {
		case "error":
			r.Error = strings.Clone(v)
		case "busy":
			r.Busy, ok = true, v == ""
		case "more":
			r.More, ok = true, v == ""
		case "unchanged":
			r.Unchanged, ok = true, v == ""
		case "preds":
			var err error
			r.Preds, err = rel.DecodeRow(strings.Clone(v), nil)
			ok = err == nil
		case "cards":
			r.Cards, ok = intsValue[int](v)
		case "gens":
			r.Gens, ok = intsValue[uint64](v)
		case "spans":
			r.Spans, ok = spansValue(v)
		}
		if !ok {
			return errValue(key)
		}
	}
	return nil
}

// decode decodes a request frame's row block into r, which is zero, and
// splits its rows. Op is a substring of the block's string, so whoever
// keeps it past the request copies it; Pred and Trace, which a server
// keeps, get strings of their own.
func (r *Request) decode(block []byte) error {
	var scratch [16]string
	env, rows, err := decodeFrame(block, scratch[:0])
	if err != nil {
		return err
	}
	for i := 0; i < len(env); i += 2 {
		key, v := env[i], env[i+1]
		ok := true
		switch key {
		case "op":
			r.Op = v
		case "body":
			var n uint64
			n, ok = uintValue(v)
			r.Body = int(n)
		case "pred":
			r.Pred = strings.Clone(v)
		case "bindCols":
			r.BindCols, ok = intsValue[int](v)
		case "trace":
			r.Trace = strings.Clone(v)
		case "span":
			r.Span, ok = uintValue(v)
		case "ifGen":
			g, isInt := uintValue(v)
			r.IfGen, ok = &g, isInt
		}
		if !ok {
			return errValue(key)
		}
	}
	return r.split(rows)
}

// split takes an eval's query and a bind's atom off the front of a
// request's rows, lowered to lang values, and leaves the rest in r.Rows:
// an eval's rows are the head row, r.Body body-atom rows and the
// comparison rows; a bind's are the atom row and the key rows. The terms
// of a query's atoms share one slice, each atom's capped at its end, and
// every string is a substring of the block's.
func (r *Request) split(rows [][]string) (err error) {
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
