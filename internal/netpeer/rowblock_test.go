package netpeer

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

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
	collect := rowsToYield(func(tu rel.Tuple) error {
		bound = append(bound, tu)
		return nil
	})
	if err := c.bindFrames(lang.NewAtom("A.r", x, y, z), []int{0}, keys, nil, collect, nil); err != nil {
		t.Fatal(err)
	}
	check("bind", bound)

	bound = bound[:0]
	if err := c.bindFrames(lang.NewAtom("A.r", x, y, z), []int{1}, [][]string{{"\xff\xfe"}}, nil, collect, nil); err != nil {
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
	if err := c.bindFrames(lang.NewAtom("A.r", x, lang.Const("\xff\xfe"), z), []int{0}, keys, nil, collect, nil); err != nil {
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
	if err := c.bindFrames(lang.NewAtom("A.r", lang.Var("x"), lang.Var("y")), []int{0}, keys, nil, func(rows [][]string) error {
		bound += len(rows)
		return nil
	}, nil); err != nil || bound != len(keys) {
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

// TestVersion1RequestAnsweredWithError sends requests of every older
// version, JSON lines written raw — without "v" (version 1), of version 2
// (one with JSON rows), of version 3 (an eval with its query in the
// envelope, and a bind with a row block after its line) and of version 4
// — each on a fresh connection to a current server: each is answered with
// the one JSON error line naming both versions, and the server closes the
// connection, within the test's deadline. A frame of this version still
// gets a normal answer.
func TestVersion1RequestAnsweredWithError(t *testing.T) {
	addr := startServer(t, map[string][]rel.Tuple{"A.r": {{"1", "a"}}})
	deadline := time.Now().Add(10 * time.Second)
	for _, req := range []string{
		`{"op":"scan","pred":"A.r"}` + "\n",
		`{"op":"scan","v":2,"pred":"A.r"}` + "\n",
		`{"op":"add","v":2,"pred":"A.r","rows":[["2","b"]]}` + "\n",
		`{"op":"eval","v":3,"query":{"head":{"p":"q","a":[{"k":"var","v":"x"}]},"body":[{"p":"A.r","a":[{"k":"var","v":"x"},{"k":"const","v":"a"}]}]}}` + "\n",
		`{"op":"bind","v":3,"atom":{"p":"A.r","a":[{"k":"var","v":"x"}]},"bindCols":[0],"rowBytes":1}` + "\n\x00",
		`{"op":"eval","v":4,"body":1,"rowBytes":11}` + "\n\x02\x01q\x02?x\x02\x03A.r\x02?x",
		`{"op":"ping","v":4}` + "\n",
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(deadline)
		if _, err := conn.Write([]byte(req)); err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(conn)
		conn.Close()
		if err != nil || string(got) != wire.VersionReply {
			t.Fatalf("%q answered %q (%v); want %q, then a closed connection", req, got, err, wire.VersionReply)
		}
	}
	for _, v := range []string{"version 1 to 4", fmt.Sprintf("version %d", wire.Version)} {
		if !strings.Contains(wire.VersionReply, v) {
			t.Fatalf("the version reply %q does not name %s", wire.VersionReply, v)
		}
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after the version errors: %v", err)
	}
}

// TestOversizeEnvelopeClosesConnection sends an envelope over the
// server's limit in the JSON line framing of versions 1 to 4. Such a line has no length prefix, so the server cannot
// tell where it ends: it answers with the version line after the first
// byte and closes the connection — the ping frame of this version written
// after the line is never answered. (An
// oversized envelope of this version is answered in-band and the
// connection kept; TestOversizeRequestSurfacesError checks that.)
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
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	req := append([]byte(`{"op":"add","v":4,"pred":"`+strings.Repeat("p", 2048)+`","rows":[["a"]]}`+"\n"), wire.AppendRequest(nil, &wire.Request{Op: "ping"})...)
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn)
	if err != nil || string(got) != wire.VersionReply {
		t.Fatalf("answered %q (%v); want %q, then a closed connection", got, err, wire.VersionReply)
	}
	if n, m := srv.requests.Load(), srv.readErrors.Load(); n != 0 || m != 1 {
		t.Fatalf("server.requests = %d, server.read_errors = %d; want 0 and 1", n, m)
	}
}

// TestVersion1ResponseBreaksClient serves a JSON frame, as versions 1 to 4
// answered, to a current client: the call fails with a version error
// naming both versions and the connection is marked broken.
func TestVersion1ResponseBreaksClient(t *testing.T) {
	addr := startStub(t, [][]stubAction{
		{{reply: `{"rows":[["a"]],"preds":["X.r"],"cards":[1],"gens":[1]}` + "\n"}},
		{{reply: "{\"rowBytes\":3,\"preds\":[\"X.r\"]}\n\x01\x01a"}},
	}, evalGoodRespond)
	for i := 0; i < 2; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Scan("X.r")
		if !errors.Is(err, wire.ErrVersion) || !strings.Contains(err.Error(), "versions 1 to 4") || !strings.Contains(err.Error(), fmt.Sprintf("version %d", wire.Version)) {
			t.Fatalf("JSON frame %d gave %v; want a version error naming both versions", i, err)
		}
		if !c.Broken() {
			t.Fatalf("client must be broken after JSON frame %d", i)
		}
		c.Close()
	}
}
