package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
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

// FuzzRequestDecode checks the request codec against encoding/json in both
// directions, on the decoding path the server runs on every request.
// Decoding: for arbitrary envelope bytes, decodeRequest and json.Unmarshal
// give the same error (or none) and deeply equal Requests, except that a
// "rows" or "bindRows" key in any case, and a negative rowBytes, are
// errors; a decoded query or atom then survives the lowering to lang
// values and back. Encoding: for a Request built from the fuzzed strings
// and integers, with flags choosing which fields are unset, nil or empty,
// AppendRequest writes exactly json.Encoder.Encode's bytes for the
// envelope followed by the row block, and ReadRequest gives the envelope
// back as encoding/json reads it and the rows byte for byte.
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
	f.Fuzz(func(t *testing.T, frame []byte, s, u string, n int, g uint64, flags byte) {
		checkRequestDecode(t, frame)
		var req Request
		if decodeRequest(frame, &req) == nil {
			checkLowering(t, &req)
		}

		r := fuzzRequest(s, u, n, g, flags)
		checkAppendRequest(t, &r)
	})
}

// fuzzRequest builds a Request touching every field from the fuzzed
// values; each flag bit unsets, nils or empties some fields.
func fuzzRequest(s, u string, n int, g uint64, flags byte) Request {
	r := Request{
		Op: s,
		V:  n,
		Query: &CQ{
			Head:  Atom{Pred: s, Args: []Term{{Kind: "var", Value: u}}},
			Body:  []Atom{{Pred: u, Args: []Term{{Kind: "const", Value: s}, {Kind: u, Value: ""}}}},
			Comps: []Comparison{{Op: u, L: Term{Kind: "const", Value: s}, R: Term{Kind: "var", Value: u}}},
		},
		Pred:     u,
		Atom:     &Atom{Pred: s, Args: []Term{{Kind: "const", Value: u}, {Kind: "var", Value: s}}},
		BindCols: []int{n, 0},
		Rows:     [][]string{{s, u}, {}, nil, {u}},
		Trace:    s,
		Span:     g,
		IfGen:    &g,
	}
	if flags&1 != 0 {
		r.Query = nil
	}
	if flags&2 != 0 && r.Query != nil {
		r.Query.Head.Args, r.Query.Body, r.Query.Comps = nil, nil, nil
	}
	if flags&4 != 0 {
		r.Atom.Args = []Term{}
	}
	if flags&8 != 0 {
		r.Atom = nil
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
	return r
}

// checkLowering checks that a decoded query or atom that lowers to lang
// values survives the wire round trip.
func checkLowering(t *testing.T, req *Request) {
	t.Helper()
	if req.Query != nil {
		if q, err := req.Query.ToCQ(); err == nil {
			back, err := FromCQ(q).ToCQ()
			if err != nil {
				t.Fatalf("re-encoding decoded query failed: %v", err)
			}
			if back.Canonical() != q.Canonical() {
				t.Fatalf("wire round trip changed query: %q vs %q", back.Canonical(), q.Canonical())
			}
		}
	}
	if req.Atom != nil {
		if a, err := req.Atom.ToAtom(); err == nil {
			if _, err := FromAtom(a).ToAtom(); err != nil {
				t.Fatalf("re-encoding decoded atom failed: %v", err)
			}
		}
	}
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
				if rows, err := DecodeRows(garbled); err == nil && !bytes.Equal(blockOf(rows), garbled) {
					t.Fatalf("garbled block %q read as %q, which encodes to %q", garbled, rows, blockOf(rows))
				}
			}
		}
	})
}
