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
// the stored tuples byte for byte. (Under JSON rows "\xff\xfe" came back
// as "��".)
func TestRowsComeBackByteExact(t *testing.T) {
	var stored []rel.Tuple
	var keys [][]string
	for i, v := range awkwardValues {
		k := fmt.Sprintf("k%d", i)
		stored = append(stored, rel.Tuple{k, v, v + v})
		keys = append(keys, []string{k})
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
}

// TestWireCountersMatchSocket checks the traffic counters of both sides
// over a scan several frames long: the client's received bytes, envelopes
// and row blocks together, equal the server's sent bytes; both sides count
// every row once; and the largest frame stays near the chunk bound.
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
}

// TestVersion1RequestAnsweredWithError sends requests without "v", and
// with a future version, to a current server: each is answered with a JSON
// error frame naming both versions, and the connection stays usable.
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
		if _, err := conn.Write([]byte(req + "\n")); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return line
	}
	for _, c := range []struct{ req, v string }{
		{`{"op":"scan","pred":"A.r"}`, "version 1"},
		{`{"op":"scan","v":3,"pred":"A.r"}`, "version 3"},
	} {
		line := exchange(c.req)
		if !strings.HasPrefix(line, `{"error":`) || !strings.Contains(line, c.v) || !strings.Contains(line, "version 2") {
			t.Fatalf("%s answered %q; want an error frame naming %s and version 2", c.req, line, c.v)
		}
	}
	if line := exchange(`{"op":"ping","v":2}`); line != "{}\n" {
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
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("version 1 frame gave %v; want an error naming both versions", err)
	}
	if !c.Broken() {
		t.Fatal("client must be broken after a version 1 frame")
	}
}
