package netpeer

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/rel"
	"repro/internal/wire"
)

// awkwardValues are stored values a JSON row would not carry byte for
// byte, or would carry only escaped: invalid UTF-8, a newline, a quote,
// HTML-sensitive bytes, NUL, U+2028, the empty string, and a value long
// enough to need a two-byte length.
var awkwardValues = []string{
	"\xff\xfe", "line\nbreak", `say "hi"`, "<&>", "nul\x00byte", "sep\u2028", "", strings.Repeat("long", 40),
}

// TestRowsComeBackByteExact stores awkward values directly in a peer and
// reads them back through scan, eval and bind: every answer must equal
// the stored tuples byte for byte. The same values then go the other way,
// as add rows read back by scan, as a bind key, and as a query constant in
// an eval's body and a bind's atom. (Under JSON rows "\xff\xfe" came back
// as "��", in answers and in add rows and bind keys alike; under JSON
// queries the constant arrived as "��" and selected nothing.)
func TestRowsComeBackByteExact(t *testing.T) {
	var stored []rel.Tuple
	var keys, rows [][]string
	for i, v := range awkwardValues {
		k := fmt.Sprintf("k%d", i)
		stored = append(stored, rel.Tuple{k, v, v + v})
		keys = append(keys, []string{k})
		rows = append(rows, stored[i])
	}
	addr := startServer(t, map[string][]rel.Tuple{"A.r": stored})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := rel.SortDistinct(append([]rel.Tuple(nil), stored...))
	check := func(path string, got []rel.Tuple) {
		t.Helper()
		got = rel.SortDistinct(got)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", path, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: row %q, want %q", path, got[i], want[i])
			}
		}
	}

	scanned, err := c.Scan("A.r")
	if err != nil {
		t.Fatal(err)
	}
	check("scan", scanned)

	x, y, z := lang.Var("x"), lang.Var("y"), lang.Var("z")
	evaled, err := c.Eval(lang.CQ{
		Head: lang.NewAtom("q", x, y, z),
		Body: []lang.Atom{lang.NewAtom("A.r", x, y, z)},
	})
	if err != nil {
		t.Fatal(err)
	}
	check("eval", evaled)

	var bound []rel.Tuple
	if err := c.BindEvalStream(lang.NewAtom("A.r", x, y, z), []int{0}, keys, func(tu rel.Tuple) error {
		bound = append(bound, tu)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	check("bind", bound)

	bound = bound[:0]
	if err := c.BindEvalStream(lang.NewAtom("A.r", x, y, z), []int{1}, [][]string{{"\xff\xfe"}}, func(tu rel.Tuple) error {
		bound = append(bound, tu)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(bound) != 1 || !bound[0].Equal(stored[0]) {
		t.Fatalf("bind on the key %q: %q, want %q", "\xff\xfe", bound, stored[0])
	}

	selected, err := c.Eval(lang.CQ{
		Head: lang.NewAtom("q", x, lang.Const("\xff\xfe"), z),
		Body: []lang.Atom{lang.NewAtom("A.r", x, lang.Const("\xff\xfe"), z)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(selected) != 1 || !selected[0].Equal(stored[0]) {
		t.Fatalf("eval on the constant %q: %q, want %q", "\xff\xfe", selected, stored[0])
	}

	bound = bound[:0]
	if err := c.BindEvalStream(lang.NewAtom("A.r", x, lang.Const("\xff\xfe"), z), []int{0}, keys, func(tu rel.Tuple) error {
		bound = append(bound, tu)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(bound) != 1 || !bound[0].Equal(stored[0]) {
		t.Fatalf("bind with the atom constant %q: %q, want %q", "\xff\xfe", bound, stored[0])
	}

	if _, err := c.Add("B.r", rows); err != nil {
		t.Fatal(err)
	}
	added, err := c.Scan("B.r")
	if err != nil {
		t.Fatal(err)
	}
	check("add, then scan", added)
}

// TestWireCountersMatchSocket checks the traffic counters of both sides
// over a scan several frames long, an add and a bind of several batches:
// each side's received bytes, envelopes and row blocks together, equal the
// other side's sent bytes; both sides count every scanned row once; and
// the largest frame stays near the chunk bound.
func TestWireCountersMatchSocket(t *testing.T) {
	const n = 3*wire.ChunkMaxRows + 7
	rows := make([]rel.Tuple, n)
	for i := range rows {
		rows[i] = rel.Tuple{fmt.Sprintf("id%06d", i), strings.Repeat("p", 48)}
	}
	srv, addr := startServerH(t, map[string][]rel.Tuple{"A.r": rows})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.counters = &Counters{}
	got, err := c.Scan("A.r")
	if err != nil || len(got) != n {
		t.Fatalf("scan: %d rows, %v", len(got), err)
	}
	waitFor(t, "the server to count its last frame", func() bool { return srv.bytesSent.Load() == c.counters.bytesRecv.Load() })
	if served, fetched := srv.rowsServed.Load(), c.counters.rowsFetched.Load(); served != n || fetched != n {
		t.Fatalf("server.rows_served %d, wire.rows_fetched %d; want %d", served, fetched, n)
	}
	if max := c.counters.maxFrame.Load(); max < int64(wire.ChunkMaxRows*50) || max > wire.ChunkMaxBytes {
		t.Fatalf("wire.max_frame_bytes = %d, want one full chunk of rows", max)
	}

	if _, err := c.Add("B.r", [][]string{{"a\nb", "\xff"}, {"c", strings.Repeat("d", 300)}}); err != nil {
		t.Fatal(err)
	}
	keys := make([][]string, 2*bindBatchSize+5)
	for i := range keys {
		keys[i] = []string{fmt.Sprintf("id%06d", i)}
	}
	var bound int
	if err := c.BindEvalStream(lang.NewAtom("A.r", lang.Var("x"), lang.Var("y")), []int{0}, keys, func(rel.Tuple) error {
		bound++
		return nil
	}); err != nil || bound != len(keys) {
		t.Fatalf("bind: %d rows, %v", bound, err)
	}
	if batches := c.counters.bindBatches.Load(); batches != 3 {
		t.Fatalf("the bind went out in %d batches, want 3", batches)
	}
	waitFor(t, "the server to count its last frame", func() bool { return srv.bytesSent.Load() == c.counters.bytesRecv.Load() })
	if recv, sent := srv.bytesRecv.Load(), c.counters.bytesSent.Load(); recv != sent {
		t.Fatalf("server.bytes_recv %d, wire.bytes_sent %d; want them equal", recv, sent)
	}
}

// TestVersion1RequestAnsweredWithError sends requests without "v", of
// version 2 (one with JSON rows), of version 3 (an eval with its query in
// the envelope, and a bind whose block holds only a key row), and of a
// future version, to a current server: each is answered with a JSON error
// frame naming both versions, and the connection stays usable.
func TestVersion1RequestAnsweredWithError(t *testing.T) {
	addr := startServer(t, map[string][]rel.Tuple{"A.r": {{"1", "a"}}})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	exchange := func(req string) string {
		t.Helper()
		if _, err := conn.Write([]byte(req)); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return line
	}
	current := fmt.Sprintf("version %d", wire.Version)
	for _, c := range []struct{ req, v string }{
		{`{"op":"scan","pred":"A.r"}` + "\n", "version 1"},
		{`{"op":"scan","v":2,"pred":"A.r"}` + "\n", "version 2"},
		{`{"op":"add","v":2,"pred":"A.r","rows":[["2","b"]]}` + "\n", "version 2"},
		{`{"op":"eval","v":3,"query":{"head":{"p":"q","a":[{"k":"var","v":"x"}]},"body":[{"p":"A.r","a":[{"k":"var","v":"x"},{"k":"const","v":"a"}]}]}}` + "\n", "version 3"},
		// An arity-0 key row, which as version 4's atom row is malformed:
		// the version error still comes first.
		{`{"op":"bind","v":3,"atom":{"p":"A.r","a":[{"k":"var","v":"x"}]},"bindCols":[0],"rowBytes":1}` + "\n\x00", "version 3"},
		{fmt.Sprintf(`{"op":"scan","v":%d,"pred":"A.r"}`, wire.Version+1) + "\n", fmt.Sprintf("version %d", wire.Version+1)},
	} {
		line := exchange(c.req)
		if !strings.HasPrefix(line, `{"error":`) || !strings.Contains(line, c.v) || !strings.Contains(line, current) {
			t.Fatalf("%q answered %q; want an error frame naming %s and %s", c.req, line, c.v, current)
		}
	}
	if line := exchange(fmt.Sprintf(`{"op":"ping","v":%d}`, wire.Version) + "\n"); line != "{}\n" {
		t.Fatalf("ping after the version errors answered %q", line)
	}
}

// TestVersion1ResponseBreaksClient serves a version 1 frame, rows as JSON,
// to a current client: the call fails with an error naming both versions
// and the connection is marked broken.
func TestVersion1ResponseBreaksClient(t *testing.T) {
	addr := startStub(t, [][]stubAction{
		{{reply: `{"rows":[["a"]],"preds":["X.r"],"cards":[1],"gens":[1]}` + "\n"}},
	}, evalGoodRespond)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Scan("X.r")
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), fmt.Sprintf("version %d", wire.Version)) {
		t.Fatalf("version 1 frame gave %v; want an error naming both versions", err)
	}
	if !c.Broken() {
		t.Fatal("client must be broken after a version 1 frame")
	}
}

// TestOversizeEnvelopeClosesConnection sends a request envelope over the
// server's limit. The server cannot know whether a row block follows the
// line, so it answers in-band and then closes the connection rather than
// read the block as the next request.
func TestOversizeEnvelopeClosesConnection(t *testing.T) {
	srv := NewServer(nil)
	srv.maxRequestBytes = 1024
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := wire.AppendRequest(nil, &wire.Request{Op: "add", V: wire.Version, Pred: strings.Repeat("p", 2048), Rows: [][]string{{fmt.Sprintf(`{"op":"ping","v":%d}`, wire.Version) + "\n"}}})
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil || !strings.Contains(line, "request frame exceeds 1024 bytes") {
		t.Fatalf("answered %q, %v; want the in-band over-limit error", line, err)
	}
	if rest, err := br.ReadString('\n'); err == nil {
		t.Fatalf("the connection stayed open and answered %q", rest)
	}
}
