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
		block = rel.AppendRow(block, row)
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
		{Spans: []obs.SpanData{{ID: 1, Name: "scan<x>", Dur: 5, Attrs: []obs.Attr{{K: "k", V: "\u2028"}}}}},
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
}

// TestTracedFrameBytesPinned pins a traced final frame's bytes: the spans
// are obs.SpanData under their JSON tags, byte-identical to the frame the
// wire's own span type wrote before obs.SpanData crossed the wire itself.
func TestTracedFrameBytesPinned(t *testing.T) {
	r := &Response{Preds: []string{"A.r"}, Cards: []int{2}, Gens: []uint64{5}, Spans: []obs.SpanData{
		{ID: 1, Parent: 42, Name: "serve.eval", Start: 1700000000000000000, Dur: 1500, Attrs: []obs.Attr{{K: "trace", V: "t<1>"}}},
		{ID: 2, Parent: 1, Name: "eval", Start: 1700000000000000100, Dur: 900, Attrs: []obs.Attr{{K: "head", V: "q\u2028"}, {K: "rows", V: "2"}}},
		{ID: 3, Parent: 2, Name: "scan", Dur: 0},
	}}
	want := "{\"rowBytes\":5,\"preds\":[\"A.r\"],\"cards\":[2],\"gens\":[5],\"spans\":[" +
		"{\"id\":1,\"parent\":42,\"name\":\"serve.eval\",\"start\":1700000000000000000,\"dur\":1500,\"attrs\":[{\"k\":\"trace\",\"v\":\"t\\u003c1\\u003e\"}]}," +
		"{\"id\":2,\"parent\":1,\"name\":\"eval\",\"start\":1700000000000000100,\"dur\":900,\"attrs\":[{\"k\":\"head\",\"v\":\"q\\u2028\"},{\"k\":\"rows\",\"v\":\"2\"}]}," +
		"{\"id\":3,\"parent\":2,\"name\":\"scan\",\"dur\":0}]}\n\x02\x01a\x01\xff"
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
		{"parses short", "{\"rowBytes\":3}\n\x01\x00\x01", DefaultMaxFrame, rel.ErrBadBlock},
		{"parses past", "{\"rowBytes\":2}\n\x01\x05ab", DefaultMaxFrame, rel.ErrBadBlock},
		{"long uvarint", "{\"rowBytes\":4}\n\x01\x81\x00a", DefaultMaxFrame, rel.ErrBadBlock},
	}
	for _, c := range cases {
		r, err := readFrame([]byte(c.frame), c.limit)
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) || r.Rows != nil {
			t.Fatalf("%s: read %+v, %v; want error %v", c.name, r, err, c.want)
		}
	}
	if _, err := readFrame([]byte(`{"rows":[["a"]]}`+"\n"), DefaultMaxFrame); !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), fmt.Sprintf("version %d", Version)) {
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

// encodeRequestJSON is the reference encoding of an envelope AppendRequest
// must reproduce.
func encodeRequestJSON(t testing.TB, r *Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readRequest reads one request frame from data through ReadRequest.
func readRequest(data []byte, limit int) (Request, error) {
	var r Request
	_, err := ReadRequest(bufio.NewReader(bytes.NewReader(data)), nil, limit, &r)
	return r, err
}

// unmarshalRequest is what encoding/json makes of a request envelope, and
// whether it has a "rows" or "bindRows" key in any case: JSON rows, as
// versions 1 and 2 sent them.
func unmarshalRequest(frame []byte) (r Request, jsonRows bool, err error) {
	env := struct {
		*Request
		Rows     json.RawMessage `json:"rows"`
		BindRows json.RawMessage `json:"bindRows"`
	}{Request: &r}
	err = json.Unmarshal(frame, &env)
	return r, env.Rows != nil || env.BindRows != nil, err
}

// checkRequestDecode fails unless decodeRequest agrees with json.Unmarshal
// on an envelope: it fails with json.Unmarshal's error when there is one,
// with errJSONRows on an otherwise valid envelope with JSON rows, and on a
// negative rowBytes; and otherwise gives a deeply equal Request.
func checkRequestDecode(t testing.TB, frame []byte) {
	t.Helper()
	want, jsonRows, wantErr := unmarshalRequest(frame)
	got := Request{Op: "stale", Query: &lang.CQ{}, Atom: &lang.Atom{}, Rows: [][]string{{"stale"}}, IfGen: new(uint64)}
	gotErr := decodeRequest(frame, &got)
	var ok bool
	switch {
	case wantErr != nil:
		ok = gotErr != nil && gotErr.Error() == wantErr.Error()
	case jsonRows:
		ok = gotErr == errJSONRows
	case want.RowBytes < 0:
		ok = gotErr != nil
	default:
		ok = gotErr == nil
	}
	if !ok {
		t.Fatalf("frame %q: decodeRequest err %v; json.Unmarshal err %v, JSON rows %v", frame, gotErr, wantErr, jsonRows)
	}
	if gotErr != nil {
		want = Request{}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frame %q:\ndecodeRequest  %#v\njson.Unmarshal %#v", frame, got, want)
	}
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

// requestRows is every row of r's block, spelled out value by value — the
// reference the codec's writer must match: the query's head, body atoms
// and comparisons, the atom, then r.Rows.
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

// splits reports whether ReadRequest lowers the front of r's block: an
// eval's or a bind's of this version.
func splits(r *Request) bool {
	return r.V == Version && (r.Op == "eval" || r.Op == "bind")
}

// termOffsets is the offset in block of each term value's kind byte, in
// the rows r's op reads as a query or an atom.
func termOffsets(block []byte, r *Request) []int {
	nrows := 0
	switch {
	case r.Op == "eval" && r.Query != nil:
		nrows = 1 + len(r.Query.Body) + len(r.Query.Comps)
	case r.Op == "bind" && r.Atom != nil:
		nrows = 1
	}
	var offs []int
	i := 0
	for range nrows {
		arity, n := binary.Uvarint(block[i:])
		i += n
		for v := range int(arity) {
			l, n := binary.Uvarint(block[i:])
			i += n
			if v > 0 { // a predicate or an operator is not a term
				offs = append(offs, i)
			}
			i += int(l)
		}
	}
	return offs
}

// checkAppendRequest fails unless AppendRequest writes, after a prefix it
// must leave alone, exactly json.Encoder's bytes for r's envelope — with
// Body the query's body count and RowBytes the block's length — followed
// by the block of r's query, atom and rows, and unless ReadRequest gives r
// back: the envelope as encoding/json reads it, the query and atom equal
// field for field, the rows byte for byte. Of a request that splits is
// false for, every row comes back in Rows. Every truncation of the frame
// is an error, and so is every term kind byte garbled to another byte. r
// must be a shape its op reads back: an eval carries no atom and no rows,
// and a bind without an atom no rows.
func checkAppendRequest(t testing.TB, r *Request) {
	t.Helper()
	all := requestRows(r)
	block := blockOf(all)
	env := *r
	env.Rows, env.RowBytes, env.Body = nil, len(block), 0
	if r.Query != nil {
		env.Body = len(r.Query.Body)
	}
	envelope := encodeRequestJSON(t, &env)
	got := AppendRequest([]byte("prefix"), r)
	frame := got[len("prefix"):]
	if !bytes.Equal(frame, append(bytes.Clone(envelope), block...)) || string(got[:len("prefix")]) != "prefix" {
		t.Fatalf("AppendRequest(%+v)\n got %q\nwant %q + block %q", r, got, envelope, block)
	}
	checkRequestDecode(t, envelope[:len(envelope)-1])
	want, _, _ := unmarshalRequest(envelope)
	var wantQuery *lang.CQ
	var wantAtom *lang.Atom
	wantRows := all
	if splits(r) {
		wantQuery, wantAtom, wantRows = r.Query, r.Atom, r.Rows
	}
	back, err := readRequest(frame, DefaultMaxFrame)
	query, atom, rows := back.Query, back.Atom, back.Rows
	back.Query, back.Atom, back.Rows = nil, nil, nil
	if err != nil || !sameCQ(query, wantQuery) || !sameAtom(atom, wantAtom) || !sameRows(rows, wantRows) || !reflect.DeepEqual(back, want) {
		t.Fatalf("request %+v read back as %+v, query %v, atom %v, rows %q (%v)", r, back, query, atom, rows, err)
	}
	var src bytes.Reader
	br := bufio.NewReader(&src)
	for n := range len(frame) {
		src.Reset(frame[:n])
		br.Reset(&src)
		var cut Request
		if _, err := ReadRequest(br, nil, DefaultMaxFrame, &cut); err == nil {
			t.Fatalf("frame cut to %d of %d bytes read as %+v", n, len(frame), cut)
		}
	}
	if !splits(r) {
		return
	}
	start := len(frame) - len(block)
	for _, off := range termOffsets(block, r) {
		for _, b := range []byte{0, 'x', '?' | 0x80, '=' + 1} {
			garbled := bytes.Clone(frame)
			garbled[start+off] = b
			if _, err := readRequest(garbled, DefaultMaxFrame); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("term kind byte %d of %q garbled to %q: %v, want a bad request", off, block, b, err)
			}
		}
	}
}

func TestAppendRequestMatchesEncodingJSON(t *testing.T) {
	gen := uint64(0)
	x, y := lang.Var("x"), lang.Var("y")
	atom := lang.NewAtom("A.r", lang.Const("1"), y)
	corpus := []Request{
		{},
		{Op: "catalog"},
		{Op: "ping", Trace: "t<1>", Span: 1<<64 - 1},
		{Op: "scan", V: Version, Pred: "A.r", IfGen: &gen},
		{Op: "ping", V: -3},
		{Op: "add", Pred: "A.r", Rows: [][]string{{"a", "b"}, {}, nil}},
		{Op: "add", Rows: [][]string{}, RowBytes: 7},
		{Op: "eval", V: Version, Query: &lang.CQ{}},
		{Op: "eval", V: Version, Query: &lang.CQ{Head: lang.Atom{Args: []lang.Term{}}, Body: []lang.Atom{}, Comps: []lang.Comparison{}}, Body: 9},
		{Op: "eval", V: Version, Query: &lang.CQ{
			Head:  lang.NewAtom("q", y),
			Body:  []lang.Atom{lang.NewAtom("P3.s", lang.Const("v1"), y), {Pred: "B"}},
			Comps: []lang.Comparison{{Op: lang.OpLE, L: y, R: lang.Const("9")}},
		}, IfGen: &gen},
		{Op: "eval", V: Version - 1, Query: &lang.CQ{Head: lang.NewAtom("q", x), Body: []lang.Atom{lang.NewAtom("A.r", x)}}, Rows: [][]string{{"k"}}},
		{Op: "bind", V: Version, Atom: &atom, BindCols: []int{0, -3, 1 << 62}, Rows: [][]string{{"k"}, {}, nil}},
		{Op: "bind", V: Version, Atom: &lang.Atom{Args: []lang.Term{}}, BindCols: []int{}, Rows: [][]string{}},
		{Op: "bind", Atom: &atom, Rows: [][]string{{"k"}}},
	}
	for _, s := range awkwardStrings {
		v, c := lang.Var(s), lang.Const(s)
		a := lang.NewAtom(s, c, v)
		corpus = append(corpus,
			Request{Op: "eval", V: Version, Query: &lang.CQ{Head: lang.NewAtom(s, v), Body: []lang.Atom{a, a},
				Comps: []lang.Comparison{{Op: lang.OpNE, L: c, R: v}}}, Pred: s, Trace: s},
			Request{Op: "bind", V: Version, Atom: &a, Pred: s, Rows: [][]string{{s, s}, {s}}, Trace: s},
			Request{Op: s, V: Version, Pred: s, Rows: [][]string{{s, s}, {s}}, Trace: s},
		)
	}
	for i := range corpus {
		checkAppendRequest(t, &corpus[i])
	}
}

// rawRequest is a request frame of this version with the given op and
// body count and the row block carrying rows, however malformed they are
// as a query or an atom.
func rawRequest(op string, body int, rows [][]string) []byte {
	block := blockOf(rows)
	return append(fmt.Appendf(nil, `{"op":%q,"v":%d,"body":%d,"rowBytes":%d}`+"\n", op, Version, body, len(block)), block...)
}

// TestReadRequest checks what ReadRequest does with requests it cannot
// take: JSON rows, a malformed block and a malformed query or atom are bad
// requests, a block over the limit is read and dropped, and an envelope
// over it is consumed through its newline. Each leaves the stream framed
// where the request's end is known, so the next request reads intact.
func TestReadRequest(t *testing.T) {
	next := AppendRequest(nil, &Request{Op: "ping", V: Version})
	add := AppendRequest(nil, &Request{Op: "add", V: Version, Pred: "A.r", Rows: [][]string{{"\xff\xfe", "a\nb"}}})
	cases := []struct {
		name     string
		frame    string
		limit    int
		want     error
		rowBytes int
	}{
		{"version 2 add", `{"op":"add","v":2,"pred":"A.r","rows":[["a"]]}` + "\n", DefaultMaxFrame, ErrBadRequest, 0},
		{"version 2 bind", `{"op":"bind","v":2,"BINDROWS":[["a"]]}` + "\n", DefaultMaxFrame, ErrBadRequest, 0},
		{"bad JSON", `{"op":` + "\n", DefaultMaxFrame, ErrBadRequest, 0},
		{"parses short", "{\"op\":\"add\",\"rowBytes\":3}\n\x01\x00\x01", DefaultMaxFrame, ErrBadRequest, 0},
		{"long uvarint", "{\"op\":\"add\",\"rowBytes\":4}\n\x01\x81\x00a", DefaultMaxFrame, ErrBadRequest, 0},
		{"term without a kind", string(rawRequest("eval", 0, [][]string{{"q", "x"}})), DefaultMaxFrame, ErrBadRequest, 0},
		{"empty term", string(rawRequest("bind", 0, [][]string{{"A.r", ""}, {"k"}})), DefaultMaxFrame, ErrBadRequest, 0},
		{"unknown operator", string(rawRequest("eval", 0, [][]string{{"q", "?x"}, {"=<", "?x", "=1"}})), DefaultMaxFrame, ErrBadRequest, 0},
		{"comparison of two values", string(rawRequest("eval", 0, [][]string{{"q", "?x"}, {"<", "?x"}})), DefaultMaxFrame, ErrBadRequest, 0},
		{"empty atom row", string(rawRequest("eval", 0, [][]string{{}})), DefaultMaxFrame, ErrBadRequest, 0},
		{"empty bind atom row", string(rawRequest("bind", 0, [][]string{{}, {"k"}})), DefaultMaxFrame, ErrBadRequest, 0},
		{"body past the block", string(rawRequest("eval", 2, [][]string{{"q"}, {"A.r"}})), DefaultMaxFrame, ErrBadRequest, 0},
		{"body without a block", string(rawRequest("eval", 1, nil)), DefaultMaxFrame, ErrBadRequest, 0},
		{"negative body", string(rawRequest("eval", -1, [][]string{{"q"}})), DefaultMaxFrame, ErrBadRequest, 0},
		{"block over the limit", string(add), len(add) - 2, ErrFrameTooLarge, len(add) - bytes.IndexByte(add, '\n') - 1},
		{"envelope over the limit", string(add), 10, ErrFrameTooLarge, 0},
	}
	for _, c := range cases {
		br := bufio.NewReader(bytes.NewReader(append([]byte(c.frame), next...)))
		var r Request
		_, err := ReadRequest(br, nil, c.limit, &r)
		if !errors.Is(err, c.want) || r.Rows != nil || r.Query != nil || r.Atom != nil || r.RowBytes != c.rowBytes {
			t.Fatalf("%s: read %+v, %v; want error %v and rowBytes %d", c.name, r, err, c.want, c.rowBytes)
		}
		if c.name == "envelope over the limit" {
			continue // the block is still unread: a server closes
		}
		if _, err := ReadRequest(br, nil, DefaultMaxFrame, &r); err != nil || r.Op != "ping" {
			t.Fatalf("%s: the next request read as %+v, %v", c.name, r, err)
		}
	}
	if _, err := readRequest([]byte(`{"op":"add","v":2,"rows":[["a"]]}`+"\n"), DefaultMaxFrame); !strings.Contains(err.Error(), "version 2") || !strings.Contains(err.Error(), fmt.Sprintf("version %d", Version)) {
		t.Fatalf("version 2 request error %q does not name both versions", err)
	}
	if r, err := readRequest(add, len(add)-1); err != nil || !sameRows(r.Rows, [][]string{{"\xff\xfe", "a\nb"}}) {
		t.Fatalf("a request at the limit: %+v, %v", r, err)
	}
	if _, err := readRequest(add[:len(add)-1], DefaultMaxFrame); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a request cut short: %v, want io.ErrUnexpectedEOF", err)
	}
}

// requestCorpus is the request envelopes decodeRequest must agree with
// encoding/json on: every shape the hand-written path takes, and every way
// of leaving it. An envelope with a "rows" or "bindRows" key is a version
// 1 or 2 request; one with a "query" or "atom" key is a version 3 request,
// whose keys both decoders skip as unknown.
var requestCorpus = []string{
	`{}`, ` { } `, `null`, ``, `[]`, `"x"`, `{"op":"ping"}`, `{"op":"ping","v":3}`, `{"v":0}`, `{"v":-1}`, `{"v":1.5}`, `{"v":"2"}`, `{"op":""}`, `{"op":1}`, `{"op":null}`,
	`{"op":"scan","pred":"A.r","ifGen":0}`, `{"op":"scan","pred":"A.r","ifGen":null}`, `{"ifGen":-1}`, `{"ifGen":1.5}`,
	`{"span":18446744073709551615}`, `{"span":18446744073709551616}`, `{"span":01}`, `{"span":-0}`, `{"span":1e3}`,
	`{"op":"eval","v":4,"body":1,"rowBytes":20,"ifGen":7}`, `{"body":0}`, `{"body":-1}`, `{"body":1.5}`, `{"body":null}`, `{"Body":2}`,
	`{"body":9223372036854775807}`, `{"body":1,"body":2}`, `{"body":"1"}`,
	`{"op":"eval","query":{"head":{"p":"q","a":[{"k":"var","v":"y"}]},"body":[{"p":"P3.s","a":[{"k":"const","v":"v1"},{"k":"var","v":"y"}]}]},"ifGen":7}`,
	`{"op":"eval","query":{}}`, `{"query":{"head":{}}}`, `{"query":{"body":[]}}`, `{"query":{"body":[{}]}}`, `{"query":{"comps":[]}}`,
	`{"query":{"comps":[{"op":"<","l":{"k":"const","v":"1"},"r":{"k":"var","v":"x"}}]}}`, `{"query":{"comps":[{}]}}`,
	`{"query":null}`, `{"query":{"head":{"p":"q","a":null}}}`, `{"query":{"body":null}}`, `{"query":{"body":[null]}}`,
	`{"query":{"head":{"p":"q"}},"query":{"body":[]}}`, `{"query":{"Head":{"p":"q"}}}`, `{"query":{"head":{"P":"q"}}}`,
	`{"query":{"head":{"p":"q","a":[{"k":"var","v":"x","x":1}]}}}`, `{"query":{"head":{"p":"q","a":[{"k":"var","k":"const"}]}}}`,
	`{"query":[]}`, `{"query":{"head":[]}}`, `{"query":{"head":{"p":"q","a":[[]]}}}`, `{"query":{"head":{"p":"q","a":{}}}}`,
	`{"op":"bind","v":3,"atom":{"p":"A.r","a":[{"k":"const","v":"1"},{"k":"var","v":"y"}]},"bindCols":[1],"rowBytes":6}`,
	`{"atom":null}`, `{"atom":{}}`, `{"bindCols":[]}`, `{"bindCols":[-1,0,9223372036854775807]}`, `{"bindCols":[9223372036854775808]}`,
	`{"bindCols":[1.0]}`, `{"bindCols":["1"]}`,
	`{"rowBytes":0}`, `{"rowBytes":-1}`, `{"rowBytes":1.0}`, `{"rowBytes":null}`, `{"rowBytes":9223372036854775807}`, `{"rowbytes":3}`, `{"rowBytes":1,"rowBytes":2}`,
	`{"op":"add","pred":"A.r","rows":[["a","b"],[]]}`, `{"rows":[]}`, `{"rows":null}`, `{"rows":[null]}`, `{"Rows":[["a"]]}`, `{"r\u006fws":[]}`,
	`{"op":"bind","atom":{"p":"A.r","a":[{"k":"const","v":"1"},{"k":"var","v":"y"}]},"bindCols":[1],"bindRows":[["a"],["b"]]}`,
	`{"bindRows":[]}`, `{"bindRows":null}`, `{"BINDROWS":[["a"]]}`, `{"bindrows":1,"op":"x"}`, `{"rows":[["a"]],"op":`, `{"op":1,"rows":[]}`,
	`{"OP":"ping"}`, `{"Op":"ping","op":"scan"}`, `{"op":"ping","op":"scan"}`, `{"o\u0070":"ping"}`, `{"op":"p\u0069ng"}`,
	`{"op":"eval","zzFromTheFuture":{"x":[1,"]"]}}`, `{"future":1,"op":"ping"}`, `{"op":"ping","trace":"abc","span":12}`,
	"{\"op\":\"bad\xff\"}", "{\"op\":\"ctl\x01\"}", "{\"op\":\"sep\u2028\"}", `{"pred":"\ud800"}`, `{"trace":"a\\b\"c\/"}`,
	" {\n\t\"op\" : \"eval\" ,\r\"query\" : { \"head\" : { \"p\" : \"q\" , \"a\" : [ ] } , \"body\" : [ ] } , \"ifGen\" : 3 } \n",
	" {\n\t\"op\" : \"eval\" ,\r\"body\" : 2 , \"rowBytes\" : 9 } \n",
	`{"op":"ping"} x`, `{"op":"ping",}`, `{"op":"ping"`, `{"op":"pi`, `{"op" "ping"}`, `{"op":"ping" "pred":"a"}`, `{,}`,
	`{"query":{"body":[{"p":"a"},]}}`, `{"bindCols":[1,]}`, `{"op":"ping"}}`,
}

func TestDecodeRequestMatchesUnmarshal(t *testing.T) {
	for _, frame := range requestCorpus {
		checkRequestDecode(t, []byte(frame))
	}
}

// TestDecodeRequestOwnsKeptStrings checks which decoded strings may share
// the frame's strings: Op may share the envelope's; Pred and Trace, which
// a server keeps, may not. The atom's strings and the rows are substrings
// of the block's own string, never of the envelope's or the read buffer.
func TestDecodeRequestOwnsKeptStrings(t *testing.T) {
	a := lang.NewAtom("B.s", lang.Var("x"), lang.Const("c1"))
	frame := AppendRequest(nil, &Request{Op: "bind", V: Version, Atom: &a, Pred: "A.r",
		Rows: [][]string{{"a", "bb"}, {"c"}}, Trace: "t1"})
	var r Request
	buf, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame)), nil, DefaultMaxFrame, &r)
	if err != nil {
		t.Fatal(err)
	}
	ptr := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	// Op is frame[7:11] on the hand-written path, so the envelope's string
	// starts 7 bytes before Op's.
	base := ptr(r.Op) - 7
	env := uintptr(bytes.IndexByte(frame, '\n'))
	inEnvelope := func(s string) bool {
		return ptr(s) >= base && ptr(s) < base+env
	}
	inBuf := func(s string) bool {
		start := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
		return ptr(s) >= start && ptr(s) < start+uintptr(cap(buf))
	}
	// The block is [3]["B.s"]["?x"]["=c1"] [2]["a"]["bb"] [1]["c"], each
	// value after its one-byte length: one string holds the atom and the
	// rows.
	if ptr(r.Atom.Args[1].Name) != ptr(r.Atom.Pred)+8 || ptr(r.Rows[0][0]) != ptr(r.Atom.Pred)+12 {
		t.Fatal("the atom and the rows are not substrings of one block string")
	}
	for _, s := range []string{r.Pred, r.Trace, r.Atom.Pred, r.Atom.Args[0].Name, r.Rows[0][0], r.Rows[0][1], r.Rows[1][0]} {
		if inEnvelope(s) || inBuf(s) {
			t.Fatalf("%q is a substring of the envelope or the read buffer; it would pin it", s)
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
	return &Request{Op: "eval", V: Version, Query: &lang.CQ{
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
	return &Request{Op: "bind", V: Version, Atom: &lang.Atom{Pred: "P3.s", Args: []lang.Term{lang.Var("x"), lang.Var("y")}},
		BindCols: []int{0}, Rows: rows}
}

// TestDecodeRequestAllocs pins the eval hop's reading cost, the query's
// lowering included: the envelope's string and ifGen; the block's string,
// values and rows; the query, its terms and its body.
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
	if allocs > 8 {
		t.Fatalf("reading an eval request costs %v allocations, want at most 8", allocs)
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
