package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rel"
)

// blockOf is the row block carrying rows.
func blockOf(rows [][]string) []byte {
	var block []byte
	for _, row := range rows {
		block = rel.AppendRow(block, row)
	}
	return block
}

// rawFrame is the frame whose envelope row is env and whose rows are rows,
// however malformed either is: the version byte, the block's length, then
// the block.
func rawFrame(env []string, rows [][]string) []byte {
	block := blockOf(append([][]string{env}, rows...))
	return append(binary.AppendUvarint([]byte{Version}, uint64(len(block))), block...)
}

// splitFrame is rawFrame's inverse, for a frame the codec wrote.
func splitFrame(t testing.TB, frame []byte) (env []string, rows [][]string) {
	t.Helper()
	n, w := binary.Uvarint(frame[1:])
	all, err := rel.DecodeRows(frame[1+w:])
	if frame[0] != Version || int(n) != len(frame)-1-w || err != nil || len(all) == 0 {
		t.Fatalf("frame %q does not split (%v)", frame, err)
	}
	return all[0], all[1:]
}

// uintValueOf is an integer value's bytes.
func uintValueOf(x uint64) string {
	return string(binary.AppendUvarint(nil, x))
}

// intsValueOf is a list value's bytes: one nested row of integer values.
func intsValueOf[T int | uint64](ns []T) string {
	vals := make([]string, len(ns))
	for i, n := range ns {
		vals[i] = uintValueOf(uint64(n))
	}
	return string(rel.AppendRow(nil, vals))
}

// responseEnvelope is r's envelope spelled out value by value — the
// reference the codec's writer must match: each set field under its key,
// in PROTOCOL.md's order.
func responseEnvelope(r *Response) []string {
	var env []string
	if r.Error != "" {
		env = append(env, "error", r.Error)
	}
	for _, f := range []struct {
		key string
		set bool
	}{{"busy", r.Busy}, {"more", r.More}, {"unchanged", r.Unchanged}} {
		if f.set {
			env = append(env, f.key, "")
		}
	}
	if len(r.Preds) > 0 {
		env = append(env, "preds", string(rel.AppendRow(nil, r.Preds)))
	}
	if len(r.Cards) > 0 {
		env = append(env, "cards", intsValueOf(r.Cards))
	}
	if len(r.Gens) > 0 {
		env = append(env, "gens", intsValueOf(r.Gens))
	}
	if len(r.Spans) > 0 {
		var rows [][]string
		for _, s := range r.Spans {
			row := []string{uintValueOf(s.ID), uintValueOf(s.Parent), s.Name, uintValueOf(uint64(s.Start)), uintValueOf(uint64(s.Dur))}
			for _, a := range s.Attrs {
				row = append(row, a.K, a.V)
			}
			rows = append(rows, row)
		}
		env = append(env, "spans", string(blockOf(rows)))
	}
	return env
}

// frameOf is r's frame, its rows after the envelope.
func frameOf(r *Response) []byte {
	return AppendResponse(nil, r, blockOf(r.Rows))
}

// readFrame reads one response frame from data through ReadResponse.
func readFrame(data []byte, limit int) (Response, error) {
	var r Response
	_, err := ReadResponse(bufio.NewReader(bytes.NewReader(data)), nil, limit, &r)
	return r, err
}

// sameRows reports whether two row lists hold the same values byte for
// byte; a nil row and an empty one are the same row on the wire.
func sameRows(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// nilIfEmpty is s, or nil when it is empty: an empty list is not written,
// so it reads back as none.
func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// decoded is what reading r's frame must give, less its rows: every empty
// list as nil.
func decoded(r *Response) Response {
	want := *r
	want.Rows = nil
	want.Preds, want.Cards, want.Gens = nilIfEmpty(r.Preds), nilIfEmpty(r.Cards), nilIfEmpty(r.Gens)
	want.Spans = nil
	for _, s := range r.Spans {
		s.Attrs = nilIfEmpty(s.Attrs)
		want.Spans = append(want.Spans, s)
	}
	return want
}

// sameResponse reports whether two responses are equal field for field,
// their rows byte for byte.
func sameResponse(a, b *Response) bool {
	x, y := *a, *b
	x.Rows, y.Rows = nil, nil
	return sameRows(a.Rows, b.Rows) && reflect.DeepEqual(x, y)
}

// withUnknownKeys is frame with a pair of a key this reader does not know
// inserted before every pair of its envelope and after the last one.
func withUnknownKeys(t testing.TB, frame []byte) []byte {
	env, rows := splitFrame(t, frame)
	var out []string
	for i := 0; i <= len(env); i += 2 {
		out = append(out, "zzFuture"+strconv.Itoa(i), strings.Repeat("\x80", i))
		out = append(out, env[i:min(i+2, len(env))]...)
	}
	return rawFrame(out, rows)
}

// checkMangled reads every truncation of frame, the frame under every
// other length up to two past its own, and the frame with every byte
// garbled: read must fail, or read back a well-formed frame — one whose
// re-encoding reads back the same and is canonical. Nothing panics.
func checkMangled(t testing.TB, frame []byte, read func([]byte) (reencoded []byte, err error)) {
	t.Helper()
	for n := range len(frame) {
		if _, err := read(frame[:n]); err == nil {
			t.Fatalf("frame cut to %d of %d bytes read back", n, len(frame))
		}
	}
	_, w := binary.Uvarint(frame[1:])
	block := frame[1+w:]
	for n := 0; n <= len(block)+2; n++ {
		if n != len(block) {
			checkWellFormed(t, append(binary.AppendUvarint([]byte{Version}, uint64(n)), block...), read)
		}
	}
	for i := range frame {
		for _, mask := range []byte{0x01, 0x80} {
			garbled := bytes.Clone(frame)
			garbled[i] ^= mask
			checkWellFormed(t, garbled, read)
		}
	}
}

// checkWellFormed fails if frame reads back as a frame whose re-encoding
// reads back differently, or is not canonical.
func checkWellFormed(t testing.TB, frame []byte, read func([]byte) ([]byte, error)) {
	t.Helper()
	again, err := read(frame)
	if err != nil {
		return
	}
	if third, err := read(again); err != nil || !bytes.Equal(third, again) {
		t.Fatalf("frame %q read back, re-encoded as %q, which reads back as %q (%v)", frame, again, third, err)
	}
}

// reencodeResponse reads a response frame and encodes what it read.
func reencodeResponse(frame []byte) ([]byte, error) {
	r, err := readFrame(frame, DefaultMaxFrame)
	if err != nil {
		return nil, err
	}
	return frameOf(&r), nil
}

// checkResponse fails unless AppendResponse writes, after a prefix it must
// leave alone, exactly the reference frame of r — responseEnvelope and r's
// rows — and unless reading it gives r back field for field, its rows byte
// for byte, with keys it does not know inserted anywhere; and every
// mangling of the frame is an error or a well-formed frame (checkMangled).
func checkResponse(t testing.TB, r *Response) {
	t.Helper()
	want := rawFrame(responseEnvelope(r), r.Rows)
	got := AppendResponse([]byte("prefix"), r, blockOf(r.Rows))
	frame := got[len("prefix"):]
	if !bytes.Equal(frame, want) || string(got[:len("prefix")]) != "prefix" {
		t.Fatalf("AppendResponse(%+v)\n got %q\nwant %q", r, got, want)
	}
	wantBack := decoded(r)
	wantBack.Rows = r.Rows
	for _, f := range [][]byte{frame, withUnknownKeys(t, frame)} {
		back, err := readFrame(f, DefaultMaxFrame)
		if err != nil || !sameResponse(&back, &wantBack) {
			t.Fatalf("frame %q of %+v read back as %+v (%v)", f, r, back, err)
		}
	}
	checkMangled(t, frame, reencodeResponse)
}

// awkwardStrings are values a JSON envelope would not carry byte for
// byte, or which a decoder must not take verbatim.
var awkwardStrings = []string{
	"", "plain", "k42", "NUL\x00byte", "<a href=\"x\">&amp;</a>", "tab\tnl\ncr\r",
	"\b\f\x1f\x7f", "back\\slash", "sep\u2028para\u2029", "bad\xffutf8\xc3", "\xed\xa0\x80",
	"\u00e9\U0001f600", "\ufffd", "\x05\x01{", strings.Repeat("long", 40),
}

// TestResponseRoundTrip runs checkResponse over every field set, unset and
// empty, and awkward strings in every string field.
func TestResponseRoundTrip(t *testing.T) {
	var every strings.Builder
	for b := 0; b < 256; b++ {
		every.WriteByte(byte(b))
	}
	corpus := []Response{
		{},
		{Error: "boom <&>", Busy: true},
		{Rows: [][]string{{"a", "b"}, {}, nil, {every.String()}}, More: true},
		{Rows: [][]string{}, Preds: []string{}, Cards: []int{}, Gens: []uint64{}},
		{Unchanged: true, Preds: []string{"A.r", "B.s"}, Cards: []int{0, -7, 1 << 62}, Gens: []uint64{0, 1<<64 - 1}},
		{Spans: []obs.SpanData{{ID: 1, Name: "scan<x>", Start: -1, Dur: 5, Attrs: []obs.Attr{{K: "k", V: " "}}}, {Attrs: []obs.Attr{}}}},
		{Preds: []string{""}, Cards: []int{0}, Gens: []uint64{0}},
	}
	for _, s := range awkwardStrings {
		corpus = append(corpus, Response{Error: s, Rows: [][]string{{s, s + s}}, Preds: []string{s, s}},
			Response{Spans: []obs.SpanData{{Name: s, Attrs: []obs.Attr{{K: s, V: s}}}}})
	}
	for i := range corpus {
		checkResponse(t, &corpus[i])
	}
}

// TestTracedFrameBytesPinned pins a traced final frame's bytes: the
// envelope's lists and spans as nested rows, then the frame's row.
func TestTracedFrameBytesPinned(t *testing.T) {
	r := &Response{Preds: []string{"A.r"}, Cards: []int{2}, Gens: []uint64{5}, Spans: []obs.SpanData{
		{ID: 1, Parent: 42, Name: "serve.eval", Start: 1700000000000000000, Dur: 1500, Attrs: []obs.Attr{{K: "trace", V: "t<1>"}}},
		{ID: 2, Parent: 1, Name: "eval", Start: 1700000000000000100, Dur: 900, Attrs: []obs.Attr{{K: "head", V: "q "}, {K: "rows", V: "2"}}},
		{ID: 3, Parent: 2, Name: "scan", Dur: 0},
	}}
	want := "\x05\x8a\x01\x08" + // the version, the block's length and the envelope's arity
		"\x05preds\x05\x01\x03A.r\x05cards\x03\x01\x01\x02\x04gens\x03\x01\x01\x05\x05spans^" +
		"\x07\x01\x01\x01*\nserve.eval\t\x80\x80\xa8\xb1\xe3\x9f\xe7\xcb\x17\x02\xdc\x0b\x05trace\x04t<1>" +
		"\t\x01\x02\x01\x01\x04eval\t\xe4\x80\xa8\xb1\xe3\x9f\xe7\xcb\x17\x02\x84\x07\x04head\x04q\u2028\x04rows\x012" +
		"\x05\x01\x03\x01\x02\x04scan\x01\x00\x01\x00" +
		"\x02\x01a\x01\xff" // the frame's row
	got := AppendResponse(nil, r, blockOf([][]string{{"a", "\xff"}}))
	if string(got) != want {
		t.Fatalf("traced frame\n got %q\nwant %q", got, want)
	}
	back, err := readFrame(got, DefaultMaxFrame)
	if err != nil || !reflect.DeepEqual(back.Spans, r.Spans) {
		t.Fatalf("spans read back as %+v (%v)", back.Spans, err)
	}
}

// TestBlockLayout pins the row block's bytes: per row uvarint(arity), then
// per value uvarint(len) and the value; a 128-byte value takes a two-byte
// length.
func TestBlockLayout(t *testing.T) {
	long := strings.Repeat("v", 128)
	got := blockOf([][]string{{"ab", ""}, {}, {long}})
	want := append([]byte{2, 2, 'a', 'b', 0, 0, 1, 0x80, 1}, long...)
	if !bytes.Equal(got, want) {
		t.Fatalf("block = %x, want %x", got, want)
	}
}

// legacyResponses are response envelopes of versions 1 to 4, JSON lines
// and malformed ones: sent as a frame, with or without the rows versions
// 2 to 4 sent after the newline, every one is a version error to this
// reader, whose first byte is not Version.
var legacyResponses = []string{
	`{}`, ` { } `, `null`, ``, `[]`, `"x"`, `{"rows":[]}`, `{"rows":[[]]}`, `{"rows":[[],["a"]]}`,
	`{"rows":[["a","b"],["c","d"]],"more":true}`,
	`{"rows":null}`, `{"rows":[null]}`, `{"rows":[["a",null]]}`, `{"rows":[["a"],null]}`,
	`{"Rows":[["a"]]}`, `{"ROWS":[["a"]],"rows":[["b"]]}`, `{"rows":[["a"]],"rows":[["b","c"]]}`,
	`{"r\u006fws":[["a"]]}`, `{"rows":[["\u00e9\ud83d\ude00","\ud800","a\\b\"c\/"]]}`,
	"{\"rows\":[[\"bad\xff\",\"ok\"]]}", "{\"rows\":[[\"ctl\x01\"]]}", "{\"rows\":[[\"sep\u2028\"]]}",
	`{"rowBytes":12,"more":true}`, `{"rowBytes":0}`, `{"rowBytes":-1}`, `{"rowBytes":1.0}`, `{"rowBytes":null}`,
	`{"rowBytes":9223372036854775807}`, `{"rowBytes":9223372036854775808}`, `{"rowbytes":3}`, `{"rowBytes":1,"rowBytes":2}`,
	" {\n\t\"rowBytes\" : 7 ,\r\"more\" : true } \n", `{"future":1,"rowBytes":4}`,
	`{"cards":[1e3]}`, `{"cards":[-0]}`, `{"cards":[0,-1,9223372036854775807]}`, `{"cards":[9223372036854775808]}`,
	`{"cards":[1.0]}`, `{"cards":[01]}`, `{"cards":[-]}`, `{"cards":["1"]}`, `{"cards":[]}`,
	`{"gens":[18446744073709551615]}`, `{"gens":[18446744073709551616]}`, `{"gens":[-1]}`, `{"gens":[-0]}`,
	`{"busy":true,"error":"x"}`, `{"busy":null}`, `{"more":1}`, `{"more":truex}`, `{"unchanged":false}`,
	`{"error":"boom \u003c\u0026\u003e"}`, `{"error":""}`, `{"error":null}`,
	`{"preds":["A.r"],"cards":[3],"gens":[7],"distinct":[[1.5,2],null]}`,
	`{"distinct":[[1,"x"]]}`, `{"distinct":{}}`, `{"distinct":[[1,2]}`, `{"distinct":}`, `{"distinct":[[1e400]]}`,
	`{"spans":[{"id":1,"name":"eval","dur":3,"attrs":[{"k":"a","v":"]"}]}]}`, `{"spans":[{"id":-1}]}`,
	`{"more":true} x`, `{"more":true,}`, `{"more":true`, `{"preds":["a"`, `{"more" true}`,
	`{"more":true "busy":true}`, `{,}`, `{"preds":["a"],]}`, `{"preds":["a",]}`,
}

// TestReadResponseRejects checks the frames ReadResponse refuses: a JSON
// frame of versions 1 to 4 and a frame of another version byte, naming
// both versions; a block over the frame limit; a frame cut short; a
// length in a longer uvarint than it needs; a block that parses short of
// or past its length, or holds a longer uvarint than it needs; a frame
// without an envelope, or with an odd one; and values that are not what
// their key holds.
func TestReadResponseRejects(t *testing.T) {
	good := frameOf(&Response{Rows: [][]string{{"a", "b"}}, More: true})
	cases := []struct {
		name  string
		frame string
		limit int
		want  error
	}{
		{"version 1", `{"rows":[["a"]],"more":true}` + "\n", DefaultMaxFrame, ErrVersion},
		{"version 4", "{\"rowBytes\":3}\n\x01\x01a", DefaultMaxFrame, ErrVersion},
		{"version 6", "\x06\x01\x00", DefaultMaxFrame, ErrVersion},
		{"over the limit", string(good), len(good) - 1, ErrFrameTooLarge},
		{"cut short", string(good[:len(good)-1]), DefaultMaxFrame, io.ErrUnexpectedEOF},
		{"length cut short", "\x05\x80", DefaultMaxFrame, io.ErrUnexpectedEOF},
		{"long length", "\x05\x81\x00\x00", DefaultMaxFrame, nil},
		{"length past an int", "\x05\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", DefaultMaxFrame, nil},
		{"parses short", "\x05\x04\x00\x01\x00\x01", DefaultMaxFrame, rel.ErrBadBlock},
		{"parses past", "\x05\x04\x00\x01\x05a", DefaultMaxFrame, rel.ErrBadBlock},
		{"long uvarint", "\x05\x05\x00\x01\x81\x00a", DefaultMaxFrame, rel.ErrBadBlock},
		{"no envelope", "\x05\x00", DefaultMaxFrame, nil},
		{"odd envelope", string(rawFrame([]string{"more"}, nil)), DefaultMaxFrame, nil},
		{"flag with a value", string(rawFrame([]string{"more", "1"}, nil)), DefaultMaxFrame, nil},
		{"long card", string(rawFrame([]string{"cards", "\x01\x02\x81\x00"}, nil)), DefaultMaxFrame, nil},
		{"card past 64 bits", string(rawFrame([]string{"cards", "\x01\x0a\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02"}, nil)), DefaultMaxFrame, nil},
		{"empty gen", string(rawFrame([]string{"gens", "\x01\x00"}, nil)), DefaultMaxFrame, nil},
		{"preds not a row", string(rawFrame([]string{"preds", "\x02\x01a"}, nil)), DefaultMaxFrame, nil},
		{"short span", string(rawFrame([]string{"spans", "\x04\x01\x01\x01\x00\x01x\x01\x00"}, nil)), DefaultMaxFrame, nil},
		{"span with an odd attribute", string(rawFrame([]string{"spans", "\x06\x01\x01\x01\x00\x01x\x01\x00\x01\x00\x01k"}, nil)), DefaultMaxFrame, nil},
	}
	for _, c := range cases {
		r, err := readFrame([]byte(c.frame), c.limit)
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) || !reflect.DeepEqual(r, Response{}) {
			t.Fatalf("%s: read %+v, %v; want error %v", c.name, r, err, c.want)
		}
	}
	for _, frame := range legacyResponses {
		for _, f := range []string{frame + "\n", frame + "\n\x01\x01a"} {
			if _, err := readFrame([]byte(f), DefaultMaxFrame); !errors.Is(err, ErrVersion) {
				t.Fatalf("JSON frame %q: %v, want a version error", f, err)
			}
		}
	}
	if _, err := readFrame([]byte(`{"rows":[["a"]]}`+"\n"), DefaultMaxFrame); !strings.Contains(err.Error(), "versions 1 to 4") || !strings.Contains(err.Error(), fmt.Sprintf("version %d", Version)) {
		t.Fatalf("JSON frame error %q does not name both versions", err)
	}
	if r, err := readFrame(good, len(good)); err != nil || len(r.Rows) != 1 {
		t.Fatalf("a frame at the limit: %+v, %v", r, err)
	}
}

// TestReadResponseAnnouncedBlockUnread checks that a block announced but
// never sent costs no more than what arrived: ReadResponse grows its
// buffer as bytes come in, not to the announced size.
func TestReadResponseAnnouncedBlockUnread(t *testing.T) {
	data := binary.AppendUvarint([]byte{Version}, 1000000000)
	data = append(data, 0, 1, 1, 'a')
	var r Response
	buf, err := ReadResponse(bufio.NewReader(bytes.NewReader(data)), nil, DefaultMaxFrame, &r)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if cap(buf) > 1<<20 {
		t.Fatalf("buffer grew to %d bytes for a block that sent 4", cap(buf))
	}
}

// rowFrame is a non-final frame of n rows in bulk_stream's shape: an
// 8-byte id and a 48-byte payload.
func rowFrame(n int) *Response {
	rows := make([][]string, n)
	for i := range rows {
		id := strconv.Itoa(10000000 + i)
		rows[i] = []string{id, "k" + id + strings.Repeat("p", 48-len(id)-1)}
	}
	return &Response{Rows: rows, More: true}
}

// frameReader reads response frames from a reused reader over data, the
// way a client reads them from its connection.
type frameReader struct {
	src  bytes.Reader
	br   *bufio.Reader
	buf  []byte
	data []byte
}

func newFrameReader(data []byte) *frameReader {
	f := &frameReader{data: data}
	f.br = bufio.NewReaderSize(&f.src, 64*1024)
	return f
}

// read reads the frame from the start of data.
func (f *frameReader) read(r *Response) error {
	f.src.Reset(f.data)
	f.br.Reset(&f.src)
	var err error
	f.buf, err = ReadResponse(f.br, f.buf, DefaultMaxFrame, r)
	return err
}

// TestDecodeAllocsConstant pins the decoder's allocation profile: with a
// reused buffer a row frame costs the same few allocations at 10 rows as
// at 1024 (the block's string, one values slice, one rows slice).
func TestDecodeAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		f := newFrameReader(frameOf(rowFrame(n)))
		var r Response
		return testing.AllocsPerRun(20, func() {
			if err := f.read(&r); err != nil || len(r.Rows) != n {
				t.Fatal(len(r.Rows), err)
			}
		})
	}
	small, big := allocs(10), allocs(ChunkMaxRows)
	if small != big || big > 3 {
		t.Fatalf("allocs per frame: %v at 10 rows, %v at %d rows; want the same, at most 3", small, big, ChunkMaxRows)
	}
}

// TestDecodeUnchangedAllocs pins the cost of the frame most repeated
// fetches end with, a row-free unchanged final frame and its metadata: the
// block's string, the preds' own copy and their slice, the cards and the
// gens. The envelope is decoded on its own, into no slice of the heap.
func TestDecodeUnchangedAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's instrumentation changes the count")
	}
	f := newFrameReader(frameOf(&Response{Unchanged: true, Preds: []string{"P3.s"}, Cards: []int{4096}, Gens: []uint64{77}}))
	var r Response
	allocs := testing.AllocsPerRun(50, func() {
		if err := f.read(&r); err != nil || !r.Unchanged || len(r.Gens) != 1 {
			t.Fatal(r, err)
		}
	})
	if allocs > 5 {
		t.Fatalf("reading an unchanged final frame costs %v allocations, want at most 5", allocs)
	}
}

// sinkBytes and sinkResp keep benchmark results live.
var (
	sinkBytes []byte
	sinkResp  Response
)

// BenchmarkDecodeResponse reads one full bulk_stream-shaped frame (1024
// rows of an 8-byte id and a 48-byte payload) through ReadResponse, and
// decodes the same rows from a JSON line through encoding/json.
func BenchmarkDecodeResponse(b *testing.B) {
	r := rowFrame(ChunkMaxRows)
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		frame := frameOf(r)
		b.SetBytes(int64(len(frame)))
		f := newFrameReader(frame)
		for b.Loop() {
			if err := f.read(&sinkResp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		frame, _ := json.Marshal(r)
		b.SetBytes(int64(len(frame)))
		for b.Loop() {
			sinkResp = Response{}
			if err := json.Unmarshal(frame, &sinkResp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAppendResponse encodes the same frame into reused buffers,
// through the row block and through a json.Encoder.
func BenchmarkAppendResponse(b *testing.B) {
	r := rowFrame(ChunkMaxRows)
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		var block []byte
		for b.Loop() {
			block = block[:0]
			for _, row := range r.Rows {
				block = rel.AppendRow(block, row)
			}
			sinkBytes = AppendResponse(sinkBytes[:0], &Response{More: true}, block)
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for b.Loop() {
			buf.Reset()
			if err := enc.Encode(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// readRequest reads one request frame from data through ReadRequest.
func readRequest(data []byte, limit int) (Request, error) {
	var r Request
	_, err := ReadRequest(bufio.NewReader(bytes.NewReader(data)), nil, limit, &r)
	return r, err
}

// termValue spells t as a row value: "?" and a variable's name, or "="
// and a constant's bytes.
func termValue(t lang.Term) string {
	if t.IsConst() {
		return "=" + t.Name
	}
	return "?" + t.Name
}

// atomValues is a's row: its predicate, then its terms.
func atomValues(a *lang.Atom) []string {
	row := []string{a.Pred}
	for _, t := range a.Args {
		row = append(row, termValue(t))
	}
	return row
}

// requestEnvelope is r's envelope spelled out value by value, the
// reference the codec's writer must match, as responseEnvelope is.
func requestEnvelope(r *Request) []string {
	env := []string{"op", r.Op}
	if r.Query != nil && len(r.Query.Body) > 0 {
		env = append(env, "body", uintValueOf(uint64(len(r.Query.Body))))
	}
	if r.Pred != "" {
		env = append(env, "pred", r.Pred)
	}
	if len(r.BindCols) > 0 {
		env = append(env, "bindCols", intsValueOf(r.BindCols))
	}
	if r.Trace != "" {
		env = append(env, "trace", r.Trace)
	}
	if r.Span != 0 {
		env = append(env, "span", uintValueOf(r.Span))
	}
	if r.IfGen != nil {
		env = append(env, "ifGen", uintValueOf(*r.IfGen))
	}
	return env
}

// requestRows is every row of r's frame after the envelope, spelled out
// value by value: the query's head, body atoms and comparisons, the atom,
// then r.Rows.
func requestRows(r *Request) [][]string {
	var rows [][]string
	if q := r.Query; q != nil {
		rows = append(rows, atomValues(&q.Head))
		for i := range q.Body {
			rows = append(rows, atomValues(&q.Body[i]))
		}
		for _, c := range q.Comps {
			rows = append(rows, []string{c.Op.String(), termValue(c.L), termValue(c.R)})
		}
	}
	if r.Atom != nil {
		rows = append(rows, atomValues(r.Atom))
	}
	return append(rows, r.Rows...)
}

// splits reports whether ReadRequest lowers the front of r's rows: an
// eval's or a bind's.
func splits(r *Request) bool {
	return r.Op == "eval" || r.Op == "bind"
}

// termOffsets is the offset in block of each term value's kind byte, in
// the rows r's op reads as a query or an atom; block starts with the
// envelope row.
func termOffsets(block []byte, r *Request) []int {
	nrows := 1
	switch {
	case r.Op == "eval" && r.Query != nil:
		nrows += 1 + len(r.Query.Body) + len(r.Query.Comps)
	case r.Op == "bind" && r.Atom != nil:
		nrows++
	}
	var offs []int
	i := 0
	for row := range nrows {
		arity, n := binary.Uvarint(block[i:])
		i += n
		for v := range int(arity) {
			l, n := binary.Uvarint(block[i:])
			i += n
			if row > 0 && v > 0 { // a predicate or an operator is not a term
				offs = append(offs, i)
			}
			i += int(l)
		}
	}
	return offs
}

// sameRequest reports whether two requests are equal field for field:
// queries and atoms as sameCQ and sameAtom say, rows byte for byte.
func sameRequest(a, b *Request) bool {
	x, y := *a, *b
	x.Query, x.Atom, x.Rows, y.Query, y.Atom, y.Rows = nil, nil, nil, nil, nil, nil
	return sameCQ(a.Query, b.Query) && sameAtom(a.Atom, b.Atom) && sameRows(a.Rows, b.Rows) && reflect.DeepEqual(x, y)
}

// reencodeRequest reads a request frame and encodes what it read.
func reencodeRequest(frame []byte) ([]byte, error) {
	r, err := readRequest(frame, DefaultMaxFrame)
	if err != nil {
		return nil, err
	}
	return AppendRequest(nil, &r), nil
}

// checkRequest fails unless AppendRequest writes, after a prefix it must
// leave alone, exactly the reference frame of r — requestEnvelope, then
// requestRows — and unless reading it, with keys it does not know inserted
// anywhere, gives r back: the envelope's fields, Body the query's body
// count and empty lists none; the query and atom equal field for field and
// the rows byte for byte. Of a request that splits is false for, every row
// comes back in Rows. Every mangling of the frame is an error or a
// well-formed frame (checkMangled), and every term kind byte garbled to
// another byte is a bad request. r must be a shape its op reads back: an
// eval carries no atom and no rows, and a bind without an atom no rows.
func checkRequest(t testing.TB, r *Request) {
	t.Helper()
	want := rawFrame(requestEnvelope(r), requestRows(r))
	got := AppendRequest([]byte("prefix"), r)
	frame := got[len("prefix"):]
	if !bytes.Equal(frame, want) || string(got[:len("prefix")]) != "prefix" {
		t.Fatalf("AppendRequest(%+v)\n got %q\nwant %q", r, got, want)
	}
	wantBack := *r
	wantBack.Body, wantBack.BindCols = 0, nilIfEmpty(r.BindCols)
	if r.Query != nil {
		wantBack.Body = len(r.Query.Body)
	}
	if !splits(r) {
		wantBack.Query, wantBack.Atom, wantBack.Rows = nil, nil, requestRows(r)
	}
	for _, f := range [][]byte{frame, withUnknownKeys(t, frame)} {
		back, err := readRequest(f, DefaultMaxFrame)
		if err != nil || !sameRequest(&back, &wantBack) {
			t.Fatalf("frame %q of %+v read back as %+v, query %v, atom %v (%v)", f, r, back, back.Query, back.Atom, err)
		}
	}
	checkMangled(t, frame, reencodeRequest)
	if !splits(r) {
		return
	}
	_, w := binary.Uvarint(frame[1:])
	start := 1 + w
	for _, off := range termOffsets(frame[start:], r) {
		for _, b := range []byte{0, 'x', '?' | 0x80, '=' + 1} {
			garbled := bytes.Clone(frame)
			garbled[start+off] = b
			if _, err := readRequest(garbled, DefaultMaxFrame); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("term kind byte %d of %q garbled to %q: %v, want a bad request", off, frame, b, err)
			}
		}
	}
}

// TestRequestRoundTrip runs checkRequest over every op's shape, fields
// set, unset and empty, and awkward strings in every string field.
func TestRequestRoundTrip(t *testing.T) {
	gen := uint64(0)
	x, y := lang.Var("x"), lang.Var("y")
	atom := lang.NewAtom("A.r", lang.Const("1"), y)
	corpus := []Request{
		{},
		{Op: "catalog"},
		{Op: "ping", Trace: "t<1>", Span: 1<<64 - 1},
		{Op: "scan", Pred: "A.r", IfGen: &gen},
		{Op: "add", Pred: "A.r", Rows: [][]string{{"a", "b"}, {}, nil}},
		{Op: "add", Rows: [][]string{}},
		{Op: "eval", Query: &lang.CQ{}},
		{Op: "eval", Query: &lang.CQ{Head: lang.Atom{Args: []lang.Term{}}, Body: []lang.Atom{}, Comps: []lang.Comparison{}}, Body: 9},
		{Op: "eval", Query: &lang.CQ{
			Head:  lang.NewAtom("q", y),
			Body:  []lang.Atom{lang.NewAtom("P3.s", lang.Const("v1"), y), {Pred: "B"}},
			Comps: []lang.Comparison{{Op: lang.OpLE, L: y, R: lang.Const("9")}},
		}, IfGen: &gen},
		{Op: "scan", Query: &lang.CQ{Head: lang.NewAtom("q", x), Body: []lang.Atom{lang.NewAtom("A.r", x)}}, Atom: &atom, Rows: [][]string{{"k"}}},
		{Op: "bind", Atom: &atom, BindCols: []int{0, -3, 1 << 62}, Rows: [][]string{{"k"}, {}, nil}},
		{Op: "bind", Atom: &lang.Atom{Args: []lang.Term{}}, BindCols: []int{}, Rows: [][]string{}},
	}
	for _, s := range awkwardStrings {
		v, c := lang.Var(s), lang.Const(s)
		a := lang.NewAtom(s, c, v)
		corpus = append(corpus,
			Request{Op: "eval", Query: &lang.CQ{Head: lang.NewAtom(s, v), Body: []lang.Atom{a, a},
				Comps: []lang.Comparison{{Op: lang.OpNE, L: c, R: v}}}, Pred: s, Trace: s},
			Request{Op: "bind", Atom: &a, Pred: s, Rows: [][]string{{s, s}, {s}}, Trace: s},
			Request{Op: s, Pred: s, Rows: [][]string{{s, s}, {s}}, Trace: s},
		)
	}
	for i := range corpus {
		checkRequest(t, &corpus[i])
	}
}

// rawRequest is a request frame with the given op and body count and the
// rows rows, however malformed they are as a query or an atom.
func rawRequest(op string, body int, rows [][]string) []byte {
	return rawFrame([]string{"op", op, "body", uintValueOf(uint64(body))}, rows)
}

// TestReadRequest checks what ReadRequest does with requests it cannot
// take: a malformed envelope, block, query or atom is a bad request, and a
// frame over the limit is read and dropped, whether its envelope or its
// rows pass it. Each leaves the stream framed, so the next request reads
// intact. A JSON line of versions 1 to 4 is a version error.
func TestReadRequest(t *testing.T) {
	next := AppendRequest(nil, &Request{Op: "ping"})
	add := AppendRequest(nil, &Request{Op: "add", Pred: "A.r", Rows: [][]string{{"\xff\xfe", "a\nb"}}})
	bigEnvelope := AppendRequest(nil, &Request{Op: "ping", Pred: strings.Repeat("p", 2048)})
	cases := []struct {
		name  string
		frame string
		limit int
		want  error
	}{
		{"odd envelope", string(rawFrame([]string{"op"}, nil)), DefaultMaxFrame, ErrBadRequest},
		{"no envelope", "\x05\x00", DefaultMaxFrame, ErrBadRequest},
		{"long body", string(rawFrame([]string{"op", "eval", "body", "\x81\x00"}, [][]string{{"q"}, {"A.r"}})), DefaultMaxFrame, ErrBadRequest},
		{"span past 64 bits", string(rawFrame([]string{"op", "ping", "span", "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02"}, nil)), DefaultMaxFrame, ErrBadRequest},
		{"empty ifGen", string(rawFrame([]string{"op", "scan", "ifGen", ""}, nil)), DefaultMaxFrame, ErrBadRequest},
		{"bindCols not a row", string(rawFrame([]string{"op", "bind", "bindCols", "\x01"}, nil)), DefaultMaxFrame, ErrBadRequest},
		{"parses short", "\x05\x09\x02\x02op\x03add\x01", DefaultMaxFrame, ErrBadRequest},
		{"long uvarint", "\x05\x0c\x02\x02op\x03add\x01\x81\x00a", DefaultMaxFrame, ErrBadRequest},
		{"term without a kind", string(rawRequest("eval", 0, [][]string{{"q", "x"}})), DefaultMaxFrame, ErrBadRequest},
		{"empty term", string(rawRequest("bind", 0, [][]string{{"A.r", ""}, {"k"}})), DefaultMaxFrame, ErrBadRequest},
		{"unknown operator", string(rawRequest("eval", 0, [][]string{{"q", "?x"}, {"=<", "?x", "=1"}})), DefaultMaxFrame, ErrBadRequest},
		{"comparison of two values", string(rawRequest("eval", 0, [][]string{{"q", "?x"}, {"<", "?x"}})), DefaultMaxFrame, ErrBadRequest},
		{"empty atom row", string(rawRequest("eval", 0, [][]string{{}})), DefaultMaxFrame, ErrBadRequest},
		{"empty bind atom row", string(rawRequest("bind", 0, [][]string{{}, {"k"}})), DefaultMaxFrame, ErrBadRequest},
		{"body past the rows", string(rawRequest("eval", 2, [][]string{{"q"}, {"A.r"}})), DefaultMaxFrame, ErrBadRequest},
		{"body without rows", string(rawRequest("eval", 1, nil)), DefaultMaxFrame, ErrBadRequest},
		{"negative body", string(rawRequest("eval", -1, [][]string{{"q"}})), DefaultMaxFrame, ErrBadRequest},
		{"rows over the limit", string(add), len(add) - 1, ErrFrameTooLarge},
		{"envelope over the limit", string(bigEnvelope), 1024, ErrFrameTooLarge},
	}
	for _, c := range cases {
		br := bufio.NewReader(bytes.NewReader(append([]byte(c.frame), next...)))
		var r Request
		_, err := ReadRequest(br, nil, c.limit, &r)
		if !errors.Is(err, c.want) || !reflect.DeepEqual(r, Request{}) {
			t.Fatalf("%s: read %+v, %v; want error %v", c.name, r, err, c.want)
		}
		if _, err := ReadRequest(br, nil, DefaultMaxFrame, &r); err != nil || r.Op != "ping" {
			t.Fatalf("%s: the next request read as %+v, %v", c.name, r, err)
		}
	}
	for _, line := range []string{`{"op":"add","v":2,"rows":[["a"]]}`, `{"op":"scan","pred":"A.r"}`, `{"op":"ping","v":4}`} {
		if _, err := readRequest([]byte(line+"\n"), DefaultMaxFrame); !errors.Is(err, ErrVersion) || errors.Is(err, ErrBadRequest) ||
			!strings.Contains(err.Error(), "versions 1 to 4") || !strings.Contains(err.Error(), fmt.Sprintf("version %d", Version)) {
			t.Fatalf("JSON request %s: %v, want a version error naming both versions", line, err)
		}
	}
	if r, err := readRequest(add, len(add)); err != nil || !sameRows(r.Rows, [][]string{{"\xff\xfe", "a\nb"}}) {
		t.Fatalf("a request at the limit: %+v, %v", r, err)
	}
	if _, err := readRequest(add[:len(add)-1], DefaultMaxFrame); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a request cut short: %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestDecodeRequestOwnsKeptStrings checks which decoded strings may share
// the frame's: Op, the atom's strings and the rows are substrings of the
// block's own string, never of the read buffer; Pred and Trace, which a
// server keeps, are not, so they never pin the frame.
func TestDecodeRequestOwnsKeptStrings(t *testing.T) {
	a := lang.NewAtom("B.s", lang.Var("x"), lang.Const("c1"))
	frame := AppendRequest(nil, &Request{Op: "bind", Atom: &a, Pred: "A.r",
		Rows: [][]string{{"a", "bb"}, {"c"}}, Trace: "t1"})
	var r Request
	buf, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame)), nil, DefaultMaxFrame, &r)
	if err != nil {
		t.Fatal(err)
	}
	ptr := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	// The block opens with the envelope's arity and "op"'s length and
	// bytes, each length one byte: Op starts 5 bytes into the block's
	// string, which is as long as the frame less its two header bytes.
	base := ptr(r.Op) - 5
	inBlock := func(s string) bool {
		return ptr(s) >= base && ptr(s) < base+uintptr(len(frame)-2)
	}
	inBuf := func(s string) bool {
		start := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
		return ptr(s) >= start && ptr(s) < start+uintptr(cap(buf))
	}
	// The rows are [3]["B.s"]["?x"]["=c1"] [2]["a"]["bb"] [1]["c"], each
	// value after its one-byte length.
	if !inBlock(r.Atom.Pred) || ptr(r.Atom.Args[1].Name) != ptr(r.Atom.Pred)+8 || ptr(r.Rows[0][0]) != ptr(r.Atom.Pred)+12 {
		t.Fatal("the atom and the rows are not substrings of the block's string")
	}
	for _, s := range []string{r.Op, r.Atom.Pred, r.Atom.Args[0].Name, r.Rows[0][0], r.Rows[0][1], r.Rows[1][0]} {
		if inBuf(s) {
			t.Fatalf("%q is a substring of the read buffer", s)
		}
	}
	for _, s := range []string{r.Pred, r.Trace} {
		if inBlock(s) || inBuf(s) {
			t.Fatalf("%q is a substring of the block or the read buffer; it would pin it", s)
		}
	}
	_ = append(r.Rows[0], "x")
	if r.Rows[1][0] != "c" {
		t.Fatal("appending to one row overwrote the next")
	}
}

// evalRequest is an adhoc_swarm-shaped eval hop: one stored atom with a
// constant, conditional on a cached generation.
func evalRequest() *Request {
	gen := uint64(7)
	y := lang.Var("y")
	return &Request{Op: "eval", Query: &lang.CQ{
		Head: lang.NewAtom("q", y),
		Body: []lang.Atom{lang.NewAtom("P17.s", lang.Const("v12"), y)},
	}, IfGen: &gen}
}

// bindRequest is a bind probe shipping n one-column keys.
func bindRequest(n int) *Request {
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{"k" + strconv.Itoa(10000000+i)}
	}
	return &Request{Op: "bind", Atom: &lang.Atom{Pred: "P3.s", Args: []lang.Term{lang.Var("x"), lang.Var("y")}},
		BindCols: []int{0}, Rows: rows}
}

// TestDecodeRequestAllocs pins the eval hop's reading cost, the query's
// lowering included: the block's string, values and rows; ifGen; the
// query, its terms and its body.
func TestDecodeRequestAllocs(t *testing.T) {
	frame := AppendRequest(nil, evalRequest())
	var src bytes.Reader
	br := bufio.NewReader(&src)
	var buf []byte
	var r Request
	allocs := testing.AllocsPerRun(50, func() {
		src.Reset(frame)
		br.Reset(&src)
		var err error
		if buf, err = ReadRequest(br, buf, DefaultMaxFrame, &r); err != nil || r.Query == nil {
			t.Fatal(r, err)
		}
	})
	if allocs > 7 {
		t.Fatalf("reading an eval request costs %v allocations, want at most 7", allocs)
	}
}

// sinkReq keeps benchmark results live.
var sinkReq Request

// requestCases are the requests the request benchmarks encode and decode:
// an adhoc_swarm-shaped eval hop, and a bind batch of 256 keys.
var requestCases = []struct {
	name string
	r    *Request
}{{"eval", evalRequest()}, {"bind256", bindRequest(256)}}

// BenchmarkAppendRequest encodes each request, its query or atom
// included, into a reused buffer.
func BenchmarkAppendRequest(b *testing.B) {
	for _, c := range requestCases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkBytes = AppendRequest(sinkBytes[:0], c.r)
			}
		})
	}
}

// BenchmarkDecodeRequest reads each request through ReadRequest, its query
// or atom lowered to lang values, from a reused reader into a reused
// buffer, as a server reads its connection.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, c := range requestCases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			frame := AppendRequest(nil, c.r)
			b.SetBytes(int64(len(frame)))
			var src bytes.Reader
			br := bufio.NewReaderSize(&src, 64*1024)
			var buf []byte
			for b.Loop() {
				src.Reset(frame)
				br.Reset(&src)
				var err error
				if buf, err = ReadRequest(br, buf, DefaultMaxFrame, &sinkReq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
