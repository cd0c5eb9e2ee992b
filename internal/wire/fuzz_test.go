package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/obs"
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

// renameKey is frame with its envelope's key from renamed to to: what a
// reader that does not know from makes of the frame is what this reader
// makes of the renamed one, which skips to as unknown.
func renameKey(t testing.TB, frame []byte, from, to string) []byte {
	env, rows := splitFrame(t, frame)
	for i := 0; i < len(env); i += 2 {
		if env[i] == from {
			env[i] = to
		}
	}
	return rawFrame(env, rows)
}

// FuzzIfGenUnchanged pins the compatibility contract of the conditional
// fetch in both directions, through the unknown-key rule. New client → old
// server: a request carrying ifGen, read by a server that does not know
// the key, decodes with every other field intact, so the old server serves
// it as an ordinary fetch. Old client → new server: a request without the
// key decodes with IfGen nil, and any value that is sent — 0 included —
// survives as present. New server → old client: an unchanged frame read
// by a client that does not know the key decodes with its metadata intact
// and claims nothing. Old server → new client: a frame without the key
// never claims unchanged.
func FuzzIfGenUnchanged(f *testing.F) {
	f.Add("scan", "A.r", uint64(0), true)
	f.Add("bind", "B.s", uint64(1<<63), false)
	f.Add("", "", uint64(7), true)
	f.Fuzz(func(t *testing.T, op, pred string, gen uint64, unchanged bool) {
		req := Request{Op: op, Pred: pred, BindCols: []int{0}, IfGen: &gen}
		if op == "eval" || op == "bind" {
			req.Op = "scan" // an eval or a bind needs its query or atom
		}
		frame := AppendRequest(nil, &req)
		back, err := readRequest(frame, DefaultMaxFrame)
		if err != nil || back.IfGen == nil || *back.IfGen != gen {
			t.Fatalf("ifGen %d did not round-trip as present: %+v (%v)", gen, back, err)
		}
		old, err := readRequest(renameKey(t, frame, "ifGen", "ifGen?"), DefaultMaxFrame)
		if err != nil || old.IfGen != nil || old.Op != back.Op || old.Pred != back.Pred || len(old.BindCols) != 1 || old.BindCols[0] != back.BindCols[0] {
			t.Fatalf("a server without ifGen read %+v as %+v (%v)", back, old, err)
		}
		req.IfGen = nil
		if fresh, err := readRequest(AppendRequest(nil, &req), DefaultMaxFrame); err != nil || fresh.IfGen != nil || fresh.Op != back.Op || fresh.Pred != back.Pred {
			t.Fatalf("old client request decoded as %+v (%v)", fresh, err)
		}

		want := Response{Unchanged: unchanged, Preds: []string{pred}, Cards: []int{1}, Gens: []uint64{gen}}
		if pred == "" {
			want.Preds = nil // an empty list is not written
		}
		frame = frameOf(&want)
		if resp, err := readFrame(frame, DefaultMaxFrame); err != nil || !sameResponse(&resp, &want) {
			t.Fatalf("response did not round-trip: %+v (%v)", resp, err)
		}
		fromOld, err := readFrame(renameKey(t, frame, "unchanged", "unchanged?"), DefaultMaxFrame)
		want.Unchanged = false
		if err != nil || !sameResponse(&fromOld, &want) {
			t.Fatalf("a client without unchanged read %+v (%v)", fromOld, err)
		}
		if fromOld, err := readFrame(frameOf(&want), DefaultMaxFrame); err != nil || fromOld.Unchanged {
			t.Fatalf("old server frame decoded as %+v (%v)", fromOld, err)
		}
	})
}

// checkArbitrary checks a reader on arbitrary frame bytes: a frame that
// does not start with Version is a version error; one that reads back is
// well-formed (checkWellFormed). Nothing panics.
func checkArbitrary(t *testing.T, frame []byte, read func([]byte) ([]byte, error)) {
	if len(frame) > 0 && frame[0] != Version {
		if _, err := read(frame); !errors.Is(err, ErrVersion) {
			t.Fatalf("frame %q of version byte %d: %v, want a version error", frame, frame[0], err)
		}
	}
	checkWellFormed(t, frame, read)
}

// FuzzRequestDecode checks the request codec, on the decoding path the
// server runs on every request. Decoding: arbitrary frame bytes are a
// version error when their first byte is not Version, and otherwise an
// error or a well-formed request (checkArbitrary); the JSON lines of
// versions 1 to 4 are among the seeds. Encoding: for an eval, a bind or
// another op's request built from the fuzzed strings and integers, its
// query and atom holding invalid UTF-8, empty names, a newline and values
// starting with "?" or "=", with flags choosing which fields are unset,
// nil or empty, checkRequest holds: AppendRequest writes exactly the
// reference frame, ReadRequest gives the request back field for field and
// the rows byte for byte, keys it does not know are skipped, and every
// truncation, bad length and garbled byte is an error or a well-formed
// frame, every garbled term kind byte a bad request.
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
		{Op: "eval", Query: &lang.CQ{Head: lang.NewAtom("q", y), Body: []lang.Atom{lang.NewAtom("A.r", lang.Const("\xff\xfe"), y)},
			Comps: []lang.Comparison{{Op: lang.OpGE, L: y, R: lang.Const("=1")}}}},
		{Op: "bind", Atom: &lang.Atom{Pred: "A.r", Args: []lang.Term{lang.Const("?x"), y}}, BindCols: []int{1}, Rows: [][]string{{"\n"}}},
		{Op: "scan", Pred: "A.r", Trace: "t", Span: 3},
	} {
		f.Add(AppendRequest(nil, &r), "eval", "bind", Version, uint64(i), byte(i))
	}
	f.Fuzz(func(t *testing.T, frame []byte, s, u string, n int, g uint64, flags byte) {
		checkArbitrary(t, frame, reencodeRequest)

		// checkRequest reads every truncation and garbling of the frame,
		// so its cost grows with the square of the values' length: 160
		// bytes still take two-byte lengths.
		r := fuzzRequest(s[:min(len(s), 160)], u[:min(len(u), 160)], n, g, flags)
		checkRequest(t, &r)
	})
}

// fuzzRequest builds a Request touching every field from the fuzzed
// values. The low two flag bits pick its shape — an eval with a query, a
// bind with an atom and key rows, another op with rows, or another op
// carrying all three — and each other bit unsets, nils or empties some
// fields.
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
	if flags&3 >= 2 && (s == "eval" || s == "bind") {
		r.Op = "scan"
	}
	switch flags & 3 {
	case 0:
		r.Op, r.Query, r.Rows = "eval", q, nil
	case 1:
		r.Op, r.Atom = "bind", &a
	case 3:
		r.Query, r.Atom = q, &a
	}
	return r
}

// FuzzResponseCodec checks the response codec. Decoding: arbitrary frame
// bytes are a version error when their first byte is not Version, and
// otherwise an error or a well-formed response (checkArbitrary); the
// JSON envelopes of versions 1 to 4 are among the seeds. Encoding: for a
// Response built from the fuzzed strings, card, generation and flags,
// checkResponse holds: AppendResponse writes exactly the reference frame,
// reading it gives the response back field for field and its rows byte
// for byte, keys it does not know are skipped, and every truncation, bad
// length and garbled byte is an error or a well-formed frame. A
// single-byte garble of the rows alone is an error or a different
// well-formed block, one that encodes back to exactly the garbled bytes.
func FuzzResponseCodec(f *testing.F) {
	for _, frame := range legacyResponses {
		f.Add([]byte(frame), "a", "<&>", 1, uint64(2), byte(0))
	}
	f.Add([]byte(`{"rowBytes":3}`), "sep\u2028", "bad\xff\xc3", -7, uint64(1<<63), byte(0xff))
	f.Add([]byte(`{"more":true}`), strings.Repeat("x", 200), "\x00\n\"", 0, uint64(0), byte(16))
	for i, r := range []Response{
		{Rows: [][]string{{"a", "b"}}, More: true},
		{Preds: []string{"A.r"}, Cards: []int{3}, Gens: []uint64{7}, Spans: []obs.SpanData{{ID: 1, Name: "eval", Attrs: []obs.Attr{{K: "k", V: "v"}}}}},
		{Error: "boom", Busy: true},
	} {
		f.Add(frameOf(&r), "s", "u", i, uint64(i), byte(i))
	}
	f.Fuzz(func(t *testing.T, frame []byte, s, u string, card int, gen uint64, flags byte) {
		checkArbitrary(t, frame, reencodeResponse)

		s, u = s[:min(len(s), 160)], u[:min(len(u), 160)] // as in FuzzRequestDecode
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
		if flags&64 != 0 {
			r.Spans = []obs.SpanData{{ID: gen, Parent: uint64(card), Name: s, Start: int64(gen), Dur: int64(card), Attrs: []obs.Attr{{K: u, V: s}}}}
		}
		checkResponse(t, &r)
		block := blockOf(r.Rows)
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
