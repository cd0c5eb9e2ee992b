package netpeer

import (
	"testing"
	"time"

	"repro/internal/parser"
	"repro/internal/rel"
)

// TestIdlePingDetectsServerRestart is the pool health-check acceptance
// test: the server dies and comes back (same address) between two queries.
// The pooled connection from the first query is dead; the pre-reuse ping
// must detect that, drop it (HealthDrops) and dial fresh, so the second
// query succeeds with no user-visible error.
func TestIdlePingDetectsServerRestart(t *testing.T) {
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
	// Treat every idle connection as idle-too-long so the test does not
	// have to wait out a real idle window.
	ex.idlePingAfter = time.Nanosecond
	if err := ex.Discover(addr); err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery(`q(x) :- X.r(x)`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ex.EvalCQ(q)
	if err != nil || len(rows) != 1 {
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

	rows, err = ex.EvalCQ(q)
	if err != nil {
		t.Fatalf("query after restart surfaced an error despite health checks: %v", err)
	}
	if len(rows) != 1 || rows[0][0] != "alive" {
		t.Fatalf("rows = %v", rows)
	}
	st := ex.WireStats()
	if st.HealthPings == 0 {
		t.Fatalf("no health pings recorded: %+v", st)
	}
	if st.HealthDrops == 0 {
		t.Fatalf("dead idle connection was not detected by the ping: %+v", st)
	}
}

// TestIdlePingKeepsHealthyConnection: pings on live connections must pass
// and hand back the same pooled connection (no drop, no spurious dial).
func TestIdlePingKeepsHealthyConnection(t *testing.T) {
	_, addr := startServerH(t, map[string][]rel.Tuple{"X.r": {{"alive"}}})
	ex := NewExecutor()
	defer ex.Close()
	ex.idlePingAfter = time.Nanosecond
	if err := ex.Discover(addr); err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery(`q(x) :- X.r(x)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rows, err := ex.EvalCQ(q)
		if err != nil || len(rows) != 1 {
			t.Fatalf("query %d: %v (%v)", i, rows, err)
		}
	}
	st := ex.WireStats()
	if st.HealthPings == 0 {
		t.Fatalf("expected health pings on reuse: %+v", st)
	}
	if st.HealthDrops != 0 {
		t.Fatalf("healthy connections were dropped: %+v", st)
	}
}
