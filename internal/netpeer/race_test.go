package netpeer

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/rel"
	"repro/internal/wire"
)

// TestExecutorConcurrentHammer drives one Executor from many goroutines
// across two peers — mixing single-peer push-down, cross-peer bind-joins
// and parallel UCQs — and checks every result. Run under -race this pins
// the shared-Client fix: the old executor cached one non-concurrency-safe
// Client per address, so concurrent calls interleaved frames on one
// socket.
func TestExecutorConcurrentHammer(t *testing.T) {
	addr1 := startServer(t, map[string][]rel.Tuple{
		"H.a": {{"1", "2"}, {"2", "3"}, {"3", "4"}},
		"H.b": {{"2"}, {"4"}},
	})
	addr2 := startServer(t, map[string][]rel.Tuple{
		"K.c": {{"2", "x"}, {"3", "y"}, {"9", "z"}},
	})
	ex := NewExecutor()
	defer ex.Close()
	for _, a := range []string{addr1, addr2} {
		if err := ex.Discover(a); err != nil {
			t.Fatal(err)
		}
	}

	cq1, err := parser.ParseQuery(`q(x) :- H.a(x, y), H.b(y)`) // single peer
	if err != nil {
		t.Fatal(err)
	}
	cq2, err := parser.ParseQuery(`q(x, z) :- H.a(x, y), K.c(y, z)`) // cross-peer
	if err != nil {
		t.Fatal(err)
	}
	cq3, err := parser.ParseQuery(`q(x) :- H.a(x, y), K.c(y, z)`) // cross-peer, arity 1
	if err != nil {
		t.Fatal(err)
	}
	ucq := lang.UCQ{Disjuncts: []lang.CQ{cq1, cq3}}

	// Expected answers, computed once up front.
	want1, err := evalOne(ex, cq1)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := evalOne(ex, cq2)
	if err != nil {
		t.Fatal(err)
	}
	wantU, err := ex.EvalUCQ(ucq)
	if err != nil {
		t.Fatal(err)
	}
	if len(want1) == 0 || len(want2) == 0 || len(wantU) == 0 {
		t.Fatalf("degenerate fixtures: %v %v %v", want1, want2, wantU)
	}

	const goroutines, iters = 16, 25
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 3 {
				case 0:
					rows, err := evalOne(ex, cq1)
					if err != nil || !tuplesEqual(rows, want1) {
						errc <- orMismatch(err, "cq1")
						return
					}
				case 1:
					rows, err := evalOne(ex, cq2)
					if err != nil || !tuplesEqual(rows, want2) {
						errc <- orMismatch(err, "cq2")
						return
					}
				default:
					rows, err := ex.EvalUCQ(ucq)
					if err != nil || !tuplesEqual(rows, wantU) {
						errc <- orMismatch(err, "ucq")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func orMismatch(err error, what string) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("answer mismatch on %s", what)
}

// stubAction is one scripted step of stubServer: either read one request
// and write reply verbatim, or close the connection immediately.
type stubAction struct {
	reply     string
	closeConn bool
}

// encodeFrame is r's response frame, its rows in the row block.
func encodeFrame(r wire.Response) []byte {
	var block []byte
	for _, row := range r.Rows {
		block = rel.AppendRow(block, row)
	}
	return wire.AppendResponse(nil, &r, block)
}

// stubServer speaks raw frames with per-connection
// scripts: connection i (0-based) runs script[i] if present before falling
// back to proper protocol handling for the rest of its life. Connections
// beyond the script behave properly from the start.
type stubServer struct {
	lis     net.Listener
	script  [][]stubAction
	respond func(req wire.Request) wire.Response
	wg      sync.WaitGroup
}

func startStub(t *testing.T, script [][]stubAction, respond func(wire.Request) wire.Response) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubServer{lis: lis, script: script, respond: respond}
	s.wg.Add(1)
	go s.accept()
	t.Cleanup(func() {
		lis.Close()
		s.wg.Wait()
	})
	return lis.Addr().String()
}

func (s *stubServer) accept() {
	defer s.wg.Done()
	for connIdx := 0; ; connIdx++ {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		var actions []stubAction
		if connIdx < len(s.script) {
			actions = s.script[connIdx]
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			br := bufio.NewReader(conn)
			var req wire.Request
			for _, act := range actions {
				if act.closeConn {
					return
				}
				if _, err := wire.ReadRequest(br, nil, wire.DefaultMaxFrame, &req); err != nil {
					return
				}
				if _, err := conn.Write([]byte(act.reply)); err != nil {
					return
				}
			}
			for {
				if _, err := wire.ReadRequest(br, nil, wire.DefaultMaxFrame, &req); err != nil {
					return
				}
				if _, err := conn.Write(encodeFrame(s.respond(req))); err != nil {
					return
				}
			}
		}()
	}
}

func evalGoodRespond(req wire.Request) wire.Response {
	switch req.Op {
	case "eval":
		return wire.Response{Rows: [][]string{{"good"}}}
	default:
		return wire.Response{Error: "unexpected op " + req.Op}
	}
}

// TestTransportErrorDropsDesyncedConnection pins the desync fix. The stub's
// first connection answers the first request with a garbled frame (a row
// block that parses past its length) followed by a queued well-formed (but
// stale) response frame. The garbled frame is a transport-level error, so the connection — which still has the stale
// frame unread — must be dropped, not pooled. The old executor kept it: the
// next call read the stale frame as its response and silently returned
// wrong rows ("stale" instead of "good").
func TestTransportErrorDropsDesyncedConnection(t *testing.T) {
	stale := encodeFrame(wire.Response{Rows: [][]string{{"stale"}}})
	addr := startStub(t, [][]stubAction{
		{{reply: "\x05\x02\x01\x05" + string(stale)}},
	}, evalGoodRespond)

	ex := NewExecutor()
	defer ex.Close()
	ex.Route("X.r", addr)
	q, err := parser.ParseQuery(`q(x) :- X.r(x)`)
	if err != nil {
		t.Fatal(err)
	}
	// First call hits the garbage frame: a transport error must surface
	// (the connection was freshly dialed, so there is nothing to retry).
	if _, err := evalOne(ex, q); err == nil {
		t.Fatal("garbled response did not surface an error")
	}
	// Second call must run on a fresh connection and see the real answer,
	// not the stale frame still queued on the first connection.
	rows, err := evalOne(ex, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "good" {
		t.Fatalf("rows = %v, want [[good]] (stale frame was consumed?)", rows)
	}
}

// TestIdleConnectionRedialOnReuse: a pooled connection that died while
// idle must be retried transparently on a fresh dial (every protocol
// request is an idempotent read), not surface a spurious error. The stub's
// first connection serves one request correctly and then hangs up.
func TestIdleConnectionRedialOnReuse(t *testing.T) {
	good := encodeFrame(wire.Response{Rows: [][]string{{"good"}}})
	addr := startStub(t, [][]stubAction{
		{{reply: string(good)}, {closeConn: true}},
	}, evalGoodRespond)

	ex := NewExecutor()
	defer ex.Close()
	ex.Route("X.r", addr)
	q, err := parser.ParseQuery(`q(x) :- X.r(x)`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := evalOne(ex, q)
	if err != nil || len(rows) != 1 || rows[0][0] != "good" {
		t.Fatalf("first call: %v (%v)", rows, err)
	}
	// The pooled connection is now dead on the server side. The executor
	// must detect the transport failure on the reused connection and retry
	// once on a fresh dial instead of failing.
	rows, err = evalOne(ex, q)
	if err != nil {
		t.Fatalf("reused-connection failure not retried: %v", err)
	}
	if len(rows) != 1 || rows[0][0] != "good" {
		t.Fatalf("rows = %v", rows)
	}
}

// TestAddFactConcurrentCreation pins the first-use relation-creation race
// on the serving side: AddFact (like wire-level adds) takes no server
// lock, so concurrent adds targeting brand-new predicates
// race each other — and catalog requests — on the instance's relation map
// unless rel.Instance serializes creation internally. Before it did, two
// creators could lose a freshly made relation (dropping tuples) or panic
// the server with a concurrent map write; under -race this layout reports
// deterministically.
func TestAddFactConcurrentCreation(t *testing.T) {
	srv, addr := startServerH(t, nil)
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		c, err := Dial(addr)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer c.Close()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := c.CatalogStats(); err != nil {
				t.Errorf("catalog: %v", err)
				return
			}
		}
	}()
	const (
		preds   = 4
		writers = 8 // per predicate, all racing the first use
	)
	var wg sync.WaitGroup
	for p := 0; p < preds; p++ {
		pred := fmt.Sprintf("N.p%d", p)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(val string) {
				defer wg.Done()
				if err := srv.AddFact(pred, rel.Tuple{val}); err != nil {
					t.Errorf("addfact %s(%s): %v", pred, val, err)
				}
			}(fmt.Sprintf("v%d", w))
		}
	}
	wg.Wait()
	close(done)
	readers.Wait()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cards, err := c.CatalogStats()
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < preds; p++ {
		pred := fmt.Sprintf("N.p%d", p)
		if got := cards[pred]; got != writers {
			t.Fatalf("%s holds %d tuples, want %d (a racing creator's relation was lost)", pred, got, writers)
		}
	}
}
