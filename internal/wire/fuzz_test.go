package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/rel"
)

// FuzzReadFrame drives the frame reader with arbitrary byte streams and
// limits, checking its contract: returned frames never exceed the limit
// and never contain a newline; an over-limit line is consumed through its
// newline (the stream stays framed, later frames still parse); the reader
// terminates; and on a clean run the frames concatenate back to the input
// (nothing lost, nothing invented).
func FuzzReadFrame(f *testing.F) {
	seeds := [][]byte{
		[]byte("{\"op\":\"catalog\"}\n"),
		[]byte("short\na much longer second line\n"),
		[]byte(""),
		[]byte("\n\n\n"),
		[]byte("no trailing newline"),
		bytes.Repeat([]byte("x"), 5000),
		append(bytes.Repeat([]byte("y"), 3000), '\n'),
		append(append(bytes.Repeat([]byte("z"), 200), '\n'), []byte("tail\n")...),
	}
	for _, s := range seeds {
		f.Add(s, 64)
		f.Add(s, 4096)
	}
	f.Fuzz(func(t *testing.T, data []byte, max int) {
		if max < 1 {
			max = 1
		}
		if max > 1<<20 {
			max = 1 << 20
		}
		// A tiny bufio buffer forces the ErrBufferFull continuation paths.
		br := bufio.NewReaderSize(bytes.NewReader(data), 16)
		var rebuilt []byte
		overLimit := false
		cleanEOF := false
		// Each iteration consumes at least one byte or ends the stream, so
		// len(data)+1 iterations must reach a terminal condition.
		for i := 0; i <= len(data); i++ {
			frame, err := ReadFrame(br, max)
			if err == nil {
				if len(frame) > max {
					t.Fatalf("frame of %d bytes exceeds limit %d", len(frame), max)
				}
				if bytes.IndexByte(frame, '\n') >= 0 {
					t.Fatalf("frame contains a newline: %q", frame)
				}
				rebuilt = append(rebuilt, frame...)
				rebuilt = append(rebuilt, '\n')
				continue
			}
			if errors.Is(err, ErrFrameTooLarge) {
				// Framing must survive: keep reading.
				overLimit = true
				continue
			}
			if errors.Is(err, io.EOF) {
				cleanEOF = true
			} else if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("unexpected error class: %v", err)
			}
			break
		}
		if cleanEOF && !overLimit && !bytes.Equal(rebuilt, data) {
			t.Fatalf("clean read did not reconstruct input:\n got %q\nwant %q", rebuilt, data)
		}
	})
}

// legacyResponse mirrors Response as compiled before the Unchanged and
// Spans fields existed. Decoding into it simulates a client running the
// old binary.
type legacyResponse struct {
	Error string     `json:"error,omitempty"`
	Busy  bool       `json:"busy,omitempty"`
	Rows  [][]string `json:"rows,omitempty"`
	More  bool       `json:"more,omitempty"`
	Preds []string   `json:"preds,omitempty"`
	Cards []int      `json:"cards,omitempty"`
	Gens  []uint64   `json:"gens,omitempty"`
}

// legacyRequest mirrors Request as compiled before IfGen existed. Decoding
// into it simulates a server running the old binary.
type legacyRequest struct {
	Op       string `json:"op"`
	Pred     string `json:"pred,omitempty"`
	BindCols []int  `json:"bindCols,omitempty"`
}

// FuzzIfGenUnchanged pins the compatibility contract of the conditional
// fetch in both directions. New client → old server: a request carrying
// ifGen decodes into the pre-ifGen shape with every other field intact, so
// the old server serves it as an ordinary fetch. Old client → new server:
// a request without the field decodes with IfGen nil, and any value that
// is sent — 0 included — survives as present. New server → old client: an
// unchanged frame decodes with its metadata intact. Old server → new
// client: a frame without the field never claims unchanged.
func FuzzIfGenUnchanged(f *testing.F) {
	f.Add("scan", "A.r", uint64(0), true)
	f.Add("bind", "B.s", uint64(1<<63), false)
	f.Add("", "", uint64(7), true)
	f.Fuzz(func(t *testing.T, op, pred string, gen uint64, unchanged bool) {
		data, err := json.Marshal(Request{Op: op, Pred: pred, BindCols: []int{0}, IfGen: &gen})
		if err != nil {
			t.Fatal(err)
		}
		var back Request
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("new server rejects new client request: %v", err)
		}
		if back.IfGen == nil || *back.IfGen != gen {
			t.Fatalf("ifGen %d did not round-trip as present: %v", gen, back.IfGen)
		}
		var old legacyRequest
		if err := json.Unmarshal(data, &old); err != nil {
			t.Fatalf("old server rejects new client request: %v", err)
		}
		if old.Op != back.Op || old.Pred != back.Pred || len(old.BindCols) != 1 || old.BindCols[0] != back.BindCols[0] {
			t.Fatalf("ifGen disturbed legacy request fields: %+v vs %+v", old, back)
		}
		oldData, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		var fresh Request
		if err := json.Unmarshal(oldData, &fresh); err != nil {
			t.Fatalf("new server rejects old client request %q: %v", oldData, err)
		}
		if fresh.IfGen != nil || fresh.Op != back.Op || fresh.Pred != back.Pred {
			t.Fatalf("old client request decoded as %+v", fresh)
		}

		data = AppendResponse(nil, &Response{Unchanged: unchanged, Preds: []string{pred}, Cards: []int{1}, Gens: []uint64{gen}}, nil)
		var resp Response
		if err := decodeResponse(data, &resp); err != nil || resp.Unchanged != unchanged || resp.Gens[0] != gen {
			t.Fatalf("response did not round-trip: %+v (%v)", resp, err)
		}
		var oldResp legacyResponse
		if err := json.Unmarshal(data, &oldResp); err != nil {
			t.Fatalf("old client rejects new server frame: %v", err)
		}
		if len(oldResp.Rows) != 0 || len(oldResp.Gens) != 1 || oldResp.Gens[0] != gen || oldResp.Preds[0] != resp.Preds[0] {
			t.Fatalf("unchanged disturbed legacy response fields: %+v", oldResp)
		}
		oldData, err = json.Marshal(oldResp)
		if err != nil {
			t.Fatal(err)
		}
		var fromOld Response
		if err := decodeResponse(oldData, &fromOld); err != nil || fromOld.Unchanged {
			t.Fatalf("old server frame %q decoded as %+v (%v)", oldData, fromOld, err)
		}
	})
}

// FuzzRequestDecode checks the request codec against encoding/json and
// against itself, on the decoding path the server runs on every request.
// Decoding: for arbitrary envelope bytes, decodeRequest and json.Unmarshal
// give the same error (or none) and deeply equal Requests, except that a
// "rows" or "bindRows" key in any case, and a negative rowBytes, are
// errors; and read as a whole frame, a query or an atom ReadRequest lowers
// passes checkAppendRequest. Encoding: for an eval, a bind, another op,
// or another version's request built from the fuzzed strings and
// integers, its query and atom holding invalid UTF-8, empty names, a
// newline and values starting with "?" or "=", with flags choosing which
// fields are unset, nil or empty, checkAppendRequest holds: AppendRequest
// writes exactly json.Encoder.Encode's bytes for the envelope followed by
// the row block, ReadRequest gives the envelope back as encoding/json
// reads it, the query and atom equal field for field and the rows byte
// for byte, and every truncation and every garbled term kind byte is an
// error.
func FuzzRequestDecode(f *testing.F) {
	for _, frame := range []string{
		`{"op":"catalog"}`,
		`{"op":"scan","pred":"A.r"}`,
		`{"op":"gens","preds":["A.r","B.s"]}`,
		`{"op":"eval","query":{"head":{"p":"q","a":[{"k":"var","v":"x"}]},"body":[{"p":"A.r","a":[{"k":"var","v":"x"}]}]}}`,
		`{"op":"bind","atom":{"p":"A.r","a":[{"k":"const","v":"1"}]},"bindCols":[0],"bindRows":[["1"]]}`,
		`{"op":"eval","query":{"head":{"p":"q"},"comps":[{"op":"<","l":{"k":"const","v":"1"},"r":{"k":"var","v":"x"}}]}}`,
	} {
		f.Add([]byte(frame), "a", "<&>", 1, uint64(2), byte(0))
	}
	f.Add([]byte(`{"op":"add","pred":"A.r","rows":[["a"],[]]}`), "sep\u2028", "bad\xff\xc3", -7, uint64(1<<63), byte(0xff))
	y := lang.Var("y")
	for i, r := range []Request{
		{Op: "eval", V: Version, Query: &lang.CQ{Head: lang.NewAtom("q", y), Body: []lang.Atom{lang.NewAtom("A.r", lang.Const("\xff\xfe"), y)},
			Comps: []lang.Comparison{{Op: lang.OpGE, L: y, R: lang.Const("=1")}}}},
		{Op: "bind", V: Version, Atom: &lang.Atom{Pred: "A.r", Args: []lang.Term{lang.Const("?x"), y}}, BindCols: []int{1}, Rows: [][]string{{"\n"}}},
	} {
		f.Add(AppendRequest(nil, &r), "eval", "bind", Version, uint64(i), byte(i))
	}
	f.Fuzz(func(t *testing.T, frame []byte, s, u string, n int, g uint64, flags byte) {
		checkRequestDecode(t, frame)
		if r, err := readRequest(frame, DefaultMaxFrame); err == nil && (r.Query != nil || r.Atom != nil) {
			checkAppendRequest(t, &Request{Op: r.Op, V: r.V, Query: r.Query, Atom: r.Atom, Rows: r.Rows})
		}

		// checkAppendRequest reads every truncation of the frame, so its
		// cost grows with the square of the values' length: 256 bytes
		// still take two-byte lengths.
		r := fuzzRequest(s[:min(len(s), 256)], u[:min(len(u), 256)], n, g, flags)
		checkAppendRequest(t, &r)
	})
}

// fuzzRequest builds a Request touching every field from the fuzzed
// values. The low two flag bits pick its shape — an eval with a query, a
// bind with an atom and key rows, another op with rows, or another
// version carrying all three — and each other bit unsets, nils or empties
// some fields.
func fuzzRequest(s, u string, n int, g uint64, flags byte) Request {
	q := &lang.CQ{
		Head: lang.NewAtom(s, lang.Var(u), lang.Var("")),
		Body: []lang.Atom{
			lang.NewAtom(u, lang.Const(s), lang.Const("")),
			lang.NewAtom(s, lang.Const("?"+u), lang.Var("="+s), lang.Const("\xff\xfe\n")),
		},
		Comps: []lang.Comparison{{Op: lang.CompOp(uint(n) % 6), L: lang.Const(s), R: lang.Var(u)}},
	}
	a := lang.NewAtom(u, lang.Const(u), lang.Var(s), lang.Const("="+u))
	r := Request{
		Op:       s,
		V:        Version,
		Pred:     u,
		BindCols: []int{n, 0},
		Rows:     [][]string{{s, u}, {}, nil, {u}},
		Trace:    s,
		Span:     g,
		IfGen:    &g,
	}
	if flags&4 != 0 {
		q.Head.Args, q.Body, q.Comps = nil, nil, nil
	}
	if flags&8 != 0 {
		a.Args = []lang.Term{}
	}
	if flags&16 != 0 {
		r.Rows, r.BindCols = nil, nil
	}
	if flags&32 != 0 {
		r.Rows, r.BindCols = [][]string{{}}, []int{}
	}
	if flags&64 != 0 {
		r.IfGen = nil
	}
	if flags&128 != 0 {
		r.Trace, r.Span = "", 0
	}
	switch flags & 3 {
	case 0:
		r.Op, r.Query, r.Rows = "eval", q, nil
	case 1:
		r.Op, r.Atom = "bind", &a
	case 2:
		if s == "eval" || s == "bind" {
			r.Op = "scan"
		}
	default:
		r.V, r.Query, r.Atom = n, q, &a
		if n == Version {
			r.V = -n
		}
	}
	return r
}

// FuzzResponseCodec checks the response codec. Envelopes: for arbitrary
// frame bytes, decodeResponse and json.Unmarshal both fail or both
// succeed and leave deeply equal Responses, except that a "rows" key is a
// version 1 frame and an error. Frames: for a Response built from the
// fuzzed strings, card, generation and flags, AppendResponse writes
// exactly json.Marshal's bytes for the envelope — for the whole frame when
// it has no rows — and reading the frame gives its rows back byte for
// byte. Every truncation of the frame is an error. A single-byte garble
// of the block is an error or a different well-formed block, one that
// encodes back to exactly the garbled bytes: the decoder never panics and
// never accepts a block it has read only part of.
func FuzzResponseCodec(f *testing.F) {
	for _, frame := range decodeCorpus {
		f.Add([]byte(frame), "a", "<&>", 1, uint64(2), byte(0))
	}
	f.Add([]byte(`{"rowBytes":3}`), "sep\u2028", "bad\xff\xc3", -7, uint64(1<<63), byte(0xff))
	f.Add([]byte(`{"more":true}`), strings.Repeat("x", 200), "\x00\n\"", 0, uint64(0), byte(16))
	f.Fuzz(func(t *testing.T, frame []byte, s, u string, card int, gen uint64, flags byte) {
		checkDecode(t, frame)

		r := Response{
			Rows:      [][]string{{s, u}, {u}},
			More:      flags&1 != 0,
			Unchanged: flags&2 != 0,
			Preds:     []string{s},
			Cards:     []int{card},
			Gens:      []uint64{gen},
		}
		if flags&4 != 0 {
			r.Error, r.Busy = u, flags&8 != 0
		}
		if flags&16 != 0 {
			r.Rows = append(r.Rows, nil, []string{})
		}
		if flags&32 != 0 {
			r.Rows, r.Preds, r.Cards, r.Gens = nil, nil, nil, nil
		}
		block := blockOf(r.Rows)
		env := r
		env.Rows, env.RowBytes = nil, len(block)
		want, err := json.Marshal(&env)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendResponse(nil, &r, block)
		if !bytes.Equal(got, append(append(want, '\n'), block...)) {
			t.Fatalf("AppendResponse(%+v)\n got %q\nwant %q", r, got, want)
		}
		if len(block) == 0 {
			if plain, _ := json.Marshal(&r); !bytes.Equal(got, append(plain, '\n')) {
				t.Fatalf("frame without rows %q differs from encoding/json's %q", got, plain)
			}
		}
		checkDecode(t, want)
		back, err := readFrame(got, DefaultMaxFrame)
		if err != nil || !sameRows(back.Rows, r.Rows) {
			t.Fatalf("rows %q read back as %q (%v)", r.Rows, back.Rows, err)
		}
		for n := range len(got) {
			if cut, err := readFrame(got[:n], DefaultMaxFrame); err == nil {
				t.Fatalf("frame cut to %d of %d bytes read as %+v", n, len(got), cut)
			}
		}
		for i := range block {
			for _, mask := range []byte{0x01, 0x80, flags | 0x40} {
				garbled := bytes.Clone(block)
				garbled[i] ^= mask
				if rows, err := rel.DecodeRows(garbled); err == nil && !bytes.Equal(blockOf(rows), garbled) {
					t.Fatalf("garbled block %q read as %q, which encodes to %q", garbled, rows, blockOf(rows))
				}
			}
		}
	})
}
