package netpeer

import (
	"testing"

	"repro/internal/parser"
	"repro/internal/rel"
)

// TestServerRestartRedialsOnce: the server dies and comes back on the same
// address between two queries, at default executor settings. The pooled
// connection from the first query is dead; the second query must still
// succeed with the same rows, paying exactly one fresh dial — the
// reused-connection retry, not a user-visible error.
func TestServerRestartRedialsOnce(t *testing.T) {
	newData := func() *rel.Instance {
		data := rel.NewInstance()
		data.MustAdd("X.r", "alive")
		return data
	}
	srv := NewServer(newData())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	ex := NewExecutor()
	defer ex.Close()
	if err := ex.Discover(addr); err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery(`q(x) :- X.r(x)`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := evalOne(ex, q)
	if err != nil || len(rows) != 1 || rows[0][0] != "alive" {
		t.Fatalf("first query: %v (%v)", rows, err)
	}

	// Kill the server and bring a fresh one up on the same address: the
	// pooled connection is now dead on the remote side.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(newData())
	if _, err := srv2.Start(addr); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()

	dials := ex.counters.dials.Load()
	rows, err = evalOne(ex, q)
	if err != nil {
		t.Fatalf("query after restart surfaced an error: %v", err)
	}
	if len(rows) != 1 || rows[0][0] != "alive" {
		t.Fatalf("rows = %v, want [[alive]]", rows)
	}
	if d := ex.counters.dials.Load() - dials; d != 1 {
		t.Fatalf("wire.dials rose by %d across the restart, want exactly 1", d)
	}
}
