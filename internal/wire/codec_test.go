package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// encodeJSON is the reference encoding AppendResponse must reproduce.
func encodeJSON(t testing.TB, r *Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// blockOf is the row block carrying rows.
func blockOf(rows [][]string) []byte {
	var block []byte
	for _, row := range rows {
		block = AppendBlockRow(block, row)
	}
	return block
}

// frameOf is r's frame, its rows in the row block.
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

// checkAppend fails unless AppendResponse writes, after a prefix it must
// leave alone, exactly json.Encoder's bytes for r's envelope — r without
// Rows and with RowBytes the block's length — followed by the block, and
// unless ReadResponse gives r's rows back byte for byte.
func checkAppend(t testing.TB, r *Response) {
	t.Helper()
	block := blockOf(r.Rows)
	env := *r
	env.Rows, env.RowBytes = nil, len(block)
	want := append(encodeJSON(t, &env), block...)
	got := AppendResponse([]byte("prefix"), r, block)
	if !bytes.Equal(got[len("prefix"):], want) || string(got[:len("prefix")]) != "prefix" {
		t.Fatalf("AppendResponse(%+v)\n got %q\nwant %q", r, got, want)
	}
	back, err := readFrame(got[len("prefix"):], DefaultMaxFrame)
	if err != nil || !sameRows(back.Rows, r.Rows) || back.RowBytes != len(block) {
		t.Fatalf("frame of %+v read back as %+v (%v)", r, back, err)
	}
}

// unmarshalEnvelope is what encoding/json makes of an envelope, and
// whether it has a "rows" key in any case: a version 1 frame.
func unmarshalEnvelope(frame []byte) (r Response, v1 bool, err error) {
	env := struct {
		*Response
		Rows json.RawMessage `json:"rows"`
	}{Response: &r}
	err = json.Unmarshal(frame, &env)
	return r, env.Rows != nil, err
}

// checkDecode fails unless decodeResponse agrees with json.Unmarshal on an
// envelope: it fails exactly when json.Unmarshal does, the envelope has a
// "rows" key or a negative rowBytes, and the results are deeply equal
// otherwise.
func checkDecode(t testing.TB, frame []byte) {
	t.Helper()
	want, v1, wantErr := unmarshalEnvelope(frame)
	bad := wantErr != nil || v1 || want.RowBytes < 0
	got := Response{Error: "stale", Rows: [][]string{{"stale"}}, More: true}
	gotErr := decodeResponse(frame, &got)
	if (gotErr != nil) != bad || (v1 && wantErr == nil && gotErr != errVersion1) {
		t.Fatalf("frame %q: decodeResponse err %v; json.Unmarshal err %v, rows key %v", frame, gotErr, wantErr, v1)
	}
	if bad {
		want = Response{}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frame %q:\ndecodeResponse %#v\njson.Unmarshal %#v", frame, got, want)
	}
}

// awkwardStrings are values whose JSON encoding differs from their bytes,
// or which the decoder must not take verbatim.
var awkwardStrings = []string{
	"", "plain", "k42", "NUL\x00byte", "<a href=\"x\">&amp;</a>", "tab\tnl\ncr\r",
	"\b\f\x1f\x7f", "back\\slash", "sep\u2028para\u2029", "bad\xffutf8\xc3", "\xed\xa0\x80",
	"\u00e9\U0001f600", "\ufffd", strings.Repeat("long", 40),
}

func TestAppendResponseMatchesEncodingJSON(t *testing.T) {
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
		{Spans: []Span{{ID: 1, Name: "scan<x>", Dur: 5, Attrs: []SpanAttr{{K: "k", V: "\u2028"}}}}},
		{Rows: [][]string{{}}, RowBytes: 99},
	}
	for _, s := range awkwardStrings {
		corpus = append(corpus, Response{Error: s, Rows: [][]string{{s, s + s}}, Preds: []string{s}})
	}
	for i := range corpus {
		checkAppend(t, &corpus[i])
	}
	// A frame without rows is exactly what encoding/json writes for it.
	for _, r := range []Response{{}, {Error: "e"}, {More: true, Preds: []string{"<p>"}, Gens: []uint64{3}}} {
		if got, want := AppendResponse(nil, &r, nil), encodeJSON(t, &r); !bytes.Equal(got, want) {
			t.Fatalf("AppendResponse(%+v) = %q, want %q", r, got, want)
		}
	}
	for _, row := range [][]string{nil, {}, {every.String()}, awkwardStrings} {
		want, _ := json.Marshal(row)
		if got := AppendRow(nil, row); !bytes.Equal(got, want) {
			t.Fatalf("AppendRow(%q) = %q, want %q", row, got, want)
		}
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

// decodeCorpus is the envelopes the decoder must agree with encoding/json
// on: every shape the hand-written path takes, and every way of leaving
// it. An envelope with a "rows" key is a version 1 frame.
var decodeCorpus = []string{
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

func TestDecodeMatchesUnmarshal(t *testing.T) {
	for _, frame := range decodeCorpus {
		checkDecode(t, []byte(frame))
	}
	// Every envelope AppendResponse writes decodes back to what
	// encoding/json makes of it.
	for _, s := range awkwardStrings {
		frame := AppendResponse(nil, &Response{Error: s, Preds: []string{s}, Cards: []int{-1}}, blockOf([][]string{{s}, {}}))
		checkDecode(t, frame[:bytes.IndexByte(frame, '\n')])
	}
}

// TestReadResponseRejects checks the frames ReadResponse refuses: a
// version 1 frame, a block over the frame limit, a block cut short, one
// that parses short of or past its announced length, and a length in a
// longer uvarint than it needs.
func TestReadResponseRejects(t *testing.T) {
	good := frameOf(&Response{Rows: [][]string{{"a", "b"}}, More: true})
	cases := []struct {
		name  string
		frame string
		limit int
		want  error
	}{
		{"version 1", `{"rows":[["a"]],"more":true}` + "\n", DefaultMaxFrame, errVersion1},
		{"over the limit", string(good), len(good) - 2, nil},
		{"cut short", string(good[:len(good)-1]), DefaultMaxFrame, io.ErrUnexpectedEOF},
		{"parses short", "{\"rowBytes\":3}\n\x01\x00\x01", DefaultMaxFrame, errBadBlock},
		{"parses past", "{\"rowBytes\":2}\n\x01\x05ab", DefaultMaxFrame, errBadBlock},
		{"long uvarint", "{\"rowBytes\":4}\n\x01\x81\x00a", DefaultMaxFrame, errBadBlock},
	}
	for _, c := range cases {
		r, err := readFrame([]byte(c.frame), c.limit)
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) || r.Rows != nil {
			t.Fatalf("%s: read %+v, %v; want error %v", c.name, r, err, c.want)
		}
	}
	if _, err := readFrame([]byte(`{"rows":[["a"]]}`+"\n"), DefaultMaxFrame); !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("version 1 frame error %q does not name both versions", err)
	}
	if r, err := readFrame(good, len(good)-1); err != nil || len(r.Rows) != 1 {
		t.Fatalf("a frame at the limit: %+v, %v", r, err)
	}
}

// TestReadResponseAnnouncedBlockUnread checks that a block announced but
// never sent costs no more than what arrived: ReadResponse grows its
// buffer as bytes come in, not to the announced size.
func TestReadResponseAnnouncedBlockUnread(t *testing.T) {
	data := []byte("{\"rowBytes\":1000000000}\n\x01\x01a")
	var r Response
	buf, err := ReadResponse(bufio.NewReader(bytes.NewReader(data)), nil, DefaultMaxFrame, &r)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if cap(buf) > 1<<20 {
		t.Fatalf("buffer grew to %d bytes for a block that sent 3", cap(buf))
	}
}

// TestDecodeRowsCapped checks that the rows sharing a block's values slice
// are each capped at their own end, so an append to one cannot overwrite
// the next.
func TestDecodeRowsCapped(t *testing.T) {
	rows, err := decodeRows(blockOf([][]string{{"a", "b"}, {"c"}}))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(rows[0], "x")
	if rows[1][0] != "c" || cap(rows[0]) != 2 {
		t.Fatalf("appending to row 0 (cap %d) changed row 1 to %q", cap(rows[0]), rows[1])
	}
	// Every value is a substring of one string holding the block.
	base := uintptr(unsafe.Pointer(unsafe.StringData(rows[0][0])))
	if p := uintptr(unsafe.Pointer(unsafe.StringData(rows[1][0]))); p != base+5 {
		t.Fatalf("row 1's value is at %d bytes from row 0's, want 5", p-base)
	}
}

func TestDecodeRowMatchesUnmarshal(t *testing.T) {
	corpus := []string{`[]`, `null`, ` [ "a" , "b" ] `, `["a",null]`, `[1]`, `["a"] x`, `[`, ``,
		`["\u0041","` + strings.Repeat("x", 100) + `"]`, "[\"bad\xff\"]", `["a","b","c","d","e","f","g","h","i"]`}
	for _, s := range awkwardStrings {
		b, _ := json.Marshal([]string{s, s})
		corpus = append(corpus, string(b))
	}
	for _, data := range corpus {
		var want []string
		wantErr := json.Unmarshal([]byte(data), &want)
		got, gotErr := DecodeRow([]byte(data))
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeRow(%q) = %#v, %v; json.Unmarshal gives %#v, %v", data, got, gotErr, want, wantErr)
		}
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
// at 1024 (the envelope's string, the block's string, one values slice,
// one rows slice).
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
	if small != big || big > 4 {
		t.Fatalf("allocs per frame: %v at 10 rows, %v at %d rows; want the same, at most 4", small, big, ChunkMaxRows)
	}
}

// sinkBytes and sinkResp keep benchmark results live.
var (
	sinkBytes []byte
	sinkResp  Response
)

// BenchmarkDecodeResponse reads one full bulk_stream-shaped frame (1024
// rows of an 8-byte id and a 48-byte payload) through ReadResponse, and
// decodes the same rows from a version 1 JSON frame through encoding/json.
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
				block = AppendBlockRow(block, row)
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

// encodeRequestJSON is the reference encoding AppendRequest must reproduce.
func encodeRequestJSON(t testing.TB, r *Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkRequestDecode fails unless DecodeRequest agrees with json.Unmarshal
// on frame: the same error or none, and deeply equal results either way.
func checkRequestDecode(t testing.TB, frame []byte) {
	t.Helper()
	var want Request
	wantErr := json.Unmarshal(frame, &want)
	got := Request{Op: "stale", Rows: [][]string{{"stale"}}, IfGen: new(uint64)}
	gotErr := DecodeRequest(frame, &got)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("frame %q: DecodeRequest err %v, json.Unmarshal err %v", frame, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frame %q:\nDecodeRequest  %#v\njson.Unmarshal %#v", frame, got, want)
	}
}

func TestAppendRequestMatchesEncodingJSON(t *testing.T) {
	gen := uint64(0)
	corpus := []Request{
		{},
		{Op: "catalog"},
		{Op: "ping", Trace: "t<1>", Span: 1<<64 - 1},
		{Op: "scan", V: Version, Pred: "A.r", IfGen: &gen},
		{Op: "ping", V: -3},
		{Op: "add", Pred: "A.r", Rows: [][]string{{"a", "b"}, {}, nil}},
		{Op: "add", Rows: [][]string{}},
		{Op: "eval", Query: &CQ{}},
		{Op: "eval", Query: &CQ{Head: Atom{Args: []Term{}}, Body: []Atom{}, Comps: []Comparison{}}},
		{Op: "eval", Query: &CQ{
			Head:  Atom{Pred: "q", Args: []Term{{Kind: "var", Value: "y"}}},
			Body:  []Atom{{Pred: "P3.s", Args: []Term{{Kind: "const", Value: "v1"}, {Kind: "var", Value: "y"}}}, {Pred: "B"}},
			Comps: []Comparison{{Op: "<=", L: Term{Kind: "var", Value: "y"}, R: Term{Kind: "const", Value: "9"}}},
		}, IfGen: &gen},
		{Op: "bind", Atom: &Atom{Pred: "A.r"}, BindCols: []int{0, -3, 1 << 62}, BindRows: [][]string{{"k"}, {}, nil}},
		{Op: "bind", Atom: &Atom{Args: []Term{}}, BindCols: []int{}, BindRows: [][]string{}},
	}
	for _, s := range awkwardStrings {
		corpus = append(corpus, Request{
			Op:       s,
			Query:    &CQ{Head: Atom{Pred: s, Args: []Term{{Kind: s, Value: s}}}, Comps: []Comparison{{Op: s}}},
			Pred:     s,
			Rows:     [][]string{{s}},
			Atom:     &Atom{Pred: s},
			BindRows: [][]string{{s, s}},
			Trace:    s,
		})
	}
	for i := range corpus {
		want := encodeRequestJSON(t, &corpus[i])
		got := AppendRequest([]byte("prefix"), &corpus[i])
		if !bytes.Equal(got[len("prefix"):], want) || string(got[:len("prefix")]) != "prefix" {
			t.Fatalf("AppendRequest(%+v)\n got %q\nwant %q", corpus[i], got, want)
		}
		checkRequestDecode(t, got)
		checkRequestDecode(t, got[len("prefix"):len(got)-1])
	}
}

// requestCorpus is the request frames DecodeRequest must agree with
// encoding/json on: every shape the hand-written path takes, and every way
// of leaving it.
var requestCorpus = []string{
	`{}`, ` { } `, `null`, ``, `[]`, `"x"`, `{"op":"ping"}`, `{"op":"ping","v":2}`, `{"v":0}`, `{"v":-1}`, `{"v":1.5}`, `{"v":"2"}`, `{"op":""}`, `{"op":1}`, `{"op":null}`,
	`{"op":"scan","pred":"A.r","ifGen":0}`, `{"op":"scan","pred":"A.r","ifGen":null}`, `{"ifGen":-1}`, `{"ifGen":1.5}`,
	`{"span":18446744073709551615}`, `{"span":18446744073709551616}`, `{"span":01}`, `{"span":-0}`, `{"span":1e3}`,
	`{"op":"eval","query":{"head":{"p":"q","a":[{"k":"var","v":"y"}]},"body":[{"p":"P3.s","a":[{"k":"const","v":"v1"},{"k":"var","v":"y"}]}]},"ifGen":7}`,
	`{"op":"eval","query":{}}`, `{"query":{"head":{}}}`, `{"query":{"body":[]}}`, `{"query":{"body":[{}]}}`, `{"query":{"comps":[]}}`,
	`{"query":{"comps":[{"op":"<","l":{"k":"const","v":"1"},"r":{"k":"var","v":"x"}}]}}`, `{"query":{"comps":[{}]}}`,
	`{"query":null}`, `{"query":{"head":{"p":"q","a":null}}}`, `{"query":{"body":null}}`, `{"query":{"body":[null]}}`,
	`{"query":{"head":{"p":"q"}},"query":{"body":[]}}`, `{"query":{"Head":{"p":"q"}}}`, `{"query":{"head":{"P":"q"}}}`,
	`{"query":{"head":{"p":"q","a":[{"k":"var","v":"x","x":1}]}}}`, `{"query":{"head":{"p":"q","a":[{"k":"var","k":"const"}]}}}`,
	`{"query":[]}`, `{"query":{"head":[]}}`, `{"query":{"head":{"p":"q","a":[[]]}}}`, `{"query":{"head":{"p":"q","a":{}}}}`,
	`{"op":"bind","atom":{"p":"A.r","a":[{"k":"const","v":"1"},{"k":"var","v":"y"}]},"bindCols":[1],"bindRows":[["a"],["b"]]}`,
	`{"atom":null}`, `{"atom":{}}`, `{"bindCols":[]}`, `{"bindCols":[-1,0,9223372036854775807]}`, `{"bindCols":[9223372036854775808]}`,
	`{"bindCols":[1.0]}`, `{"bindCols":["1"]}`, `{"bindRows":[]}`, `{"bindRows":[[]]}`, `{"bindRows":[[],["a","b"],[]]}`,
	`{"bindRows":[null]}`, `{"bindRows":[["a",null]]}`, `{"bindRows":null}`,
	`{"op":"add","pred":"A.r","rows":[["a","b"],[]]}`, `{"rows":[]}`, `{"rows":[null]}`, `{"rows":[["a"],["b","c","d","e","f","g","h","i","j"]]}`,
	`{"OP":"ping"}`, `{"Op":"ping","op":"scan"}`, `{"op":"ping","op":"scan"}`, `{"o\u0070":"ping"}`, `{"op":"p\u0069ng"}`,
	`{"op":"eval","zzFromTheFuture":{"x":[1,"]"]}}`, `{"future":1,"op":"ping"}`, `{"op":"ping","trace":"abc","span":12}`,
	"{\"op\":\"bad\xff\"}", "{\"op\":\"ctl\x01\"}", "{\"op\":\"sep\u2028\"}", `{"pred":"\ud800"}`, `{"trace":"a\\b\"c\/"}`,
	" {\n\t\"op\" : \"eval\" ,\r\"query\" : { \"head\" : { \"p\" : \"q\" , \"a\" : [ ] } , \"body\" : [ ] } , \"ifGen\" : 3 } \n",
	`{"op":"ping"} x`, `{"op":"ping",}`, `{"op":"ping"`, `{"op":"pi`, `{"op" "ping"}`, `{"op":"ping" "pred":"a"}`, `{,}`,
	`{"query":{"body":[{"p":"a"},]}}`, `{"bindRows":[["a",]]}`, `{"bindCols":[1,]}`, `{"op":"ping"}}`,
}

func TestDecodeRequestMatchesUnmarshal(t *testing.T) {
	for _, frame := range requestCorpus {
		checkRequestDecode(t, []byte(frame))
	}
}

// TestDecodeRequestOwnsKeptStrings checks which decoded strings may share
// the frame's string: Op and the query's, atom's and bind rows' strings
// may; Pred, Trace and the values of add rows, which a server keeps, may
// not, and no two add rows share a backing array.
func TestDecodeRequestOwnsKeptStrings(t *testing.T) {
	frame := []byte(`{"op":"add","query":{"head":{"p":"q","a":[]}},"pred":"A.r","rows":[["a","bb"],["c"]],"bindRows":[["k"]],"trace":"t1"}`)
	var r Request
	if err := DecodeRequest(frame, &r); err != nil {
		t.Fatal(err)
	}
	// Op is frame[7:10] on the hand-written path, so the frame's string
	// starts 7 bytes before Op's.
	base := uintptr(unsafe.Pointer(unsafe.StringData(r.Op))) - 7
	inFrame := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return p >= base && p < base+uintptr(len(frame))
	}
	if !inFrame(r.Query.Head.Pred) || !inFrame(r.BindRows[0][0]) {
		t.Fatal("query and bind strings were copied: the hand-written path was not taken")
	}
	for _, s := range []string{r.Pred, r.Trace, r.Rows[0][0], r.Rows[0][1], r.Rows[1][0]} {
		if inFrame(s) {
			t.Fatalf("%q is a substring of the frame; it would pin it", s)
		}
	}
	_ = append(r.Rows[0], "x")
	if r.Rows[1][0] != "c" {
		t.Fatal("add rows share a backing array")
	}
}

// evalRequest is an adhoc_swarm-shaped eval hop: one stored atom with a
// constant, conditional on a cached generation.
func evalRequest() *Request {
	gen := uint64(7)
	return &Request{Op: "eval", Query: &CQ{
		Head: Atom{Pred: "q", Args: []Term{{Kind: "var", Value: "y"}}},
		Body: []Atom{{Pred: "P17.s", Args: []Term{{Kind: "const", Value: "v12"}, {Kind: "var", Value: "y"}}}},
	}, IfGen: &gen}
}

// bindRequest is a bind probe shipping n one-column keys.
func bindRequest(n int) *Request {
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{"k" + strconv.Itoa(10000000+i)}
	}
	return &Request{Op: "bind", Atom: &Atom{Pred: "P3.s", Args: []Term{{Kind: "var", Value: "x"}, {Kind: "var", Value: "y"}}},
		BindCols: []int{0}, BindRows: rows}
}

// TestDecodeRequestAllocs pins the eval hop's decoding cost: the frame's
// string, the query, its body slice and its two argument slices, and
// ifGen.
func TestDecodeRequestAllocs(t *testing.T) {
	frame := AppendRequest(nil, evalRequest())
	var r Request
	allocs := testing.AllocsPerRun(50, func() {
		if err := DecodeRequest(frame, &r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Fatalf("decoding an eval request costs %v allocations, want at most 6", allocs)
	}
}

// sinkReq keeps benchmark results live.
var sinkReq Request

// BenchmarkAppendRequest encodes an adhoc_swarm-shaped eval request and a
// 1,024-key bind request into a reused buffer, through the codec and
// through a json.Encoder.
func BenchmarkAppendRequest(b *testing.B) {
	for _, c := range []struct {
		name string
		r    *Request
	}{{"eval", evalRequest()}, {"bind1024", bindRequest(1024)}} {
		b.Run(c.name+"/codec", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkBytes = AppendRequest(sinkBytes[:0], c.r)
			}
		})
		b.Run(c.name+"/encoding_json", func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for b.Loop() {
				buf.Reset()
				if err := enc.Encode(c.r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeRequest decodes the same two requests, through the codec
// and through encoding/json.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, c := range []struct {
		name string
		r    *Request
	}{{"eval", evalRequest()}, {"bind1024", bindRequest(1024)}} {
		frame := AppendRequest(nil, c.r)
		frame = frame[:len(frame)-1]
		b.Run(c.name+"/codec", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for b.Loop() {
				if err := DecodeRequest(frame, &sinkReq); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/encoding_json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for b.Loop() {
				sinkReq = Request{}
				if err := json.Unmarshal(frame, &sinkReq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
