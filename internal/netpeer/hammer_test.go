package netpeer

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/wire"
)

// addPinnable adds to data a relation pred big enough that its scan
// overflows the loopback socket buffers: a client that requests it and
// stops reading blocks the server mid-stream, holding the request's
// admission slot for as long as it stalls. Its 20 MB of frames are five
// times the default maximum TCP send buffer; the payload needs no JSON
// escaping, so draining it stays cheap.
func addPinnable(t testing.TB, data *rel.Instance, pred string) {
	t.Helper()
	row := rel.Tuple{"", strings.Repeat("x", 512)}
	for i := 0; i < 40000; i++ {
		row[0] = fmt.Sprintf("b%06d", i)
		if _, err := data.Add(pred, row); err != nil {
			t.Fatal(err)
		}
	}
}

// slowConsumer dials addr and sends a scan of bigPred, reading nothing:
// once the server is blocked streaming the answer, the connection pins
// one admission slot. It is closed at cleanup.
func slowConsumer(t *testing.T, addr, bigPred string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(wire.AppendRequest(nil, &wire.Request{Op: "scan", Pred: bigPred})); err != nil {
		t.Fatal(err)
	}
	return conn
}

// waitFor polls cond, which reads a server's or an executor's own gauges
// and counters, until it holds; after 10 s it fails the test naming what.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// pinServerSlots occupies n admission slots of the server at addr with
// slow consumers (see slowConsumer). It returns a release function that
// drains the consumers (freeing the slots) and waits for them to finish.
func pinServerSlots(t *testing.T, srv *Server, addr, bigPred string, n int) (release func()) {
	t.Helper()
	// A request's client can read its final frame before the server has
	// released its slot; a pinner arriving then would be shed.
	waitFor(t, "earlier requests to release their slots", func() bool { return srv.admMetrics.inflight.Load() == 0 })
	conns := make([]net.Conn, n)
	for i := range conns {
		conns[i] = slowConsumer(t, addr, bigPred)
	}
	waitFor(t, fmt.Sprintf("pinners to occupy %d slots", n), func() bool { return srv.admMetrics.inflight.Load() == int64(n) })
	return func() {
		var wg sync.WaitGroup
		for _, conn := range conns {
			conn := conn
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Drain exactly one response stream: readStream returns at
				// the scan's final frame, at which point the server has
				// released the slot.
				c := &Client{conn: conn, br: bufio.NewReaderSize(conn, 64*1024), maxFrame: wire.DefaultMaxFrame, counters: &Counters{}}
				if _, err := c.readStream(nil); err != nil {
					t.Errorf("draining pinned scan: %v", err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestHammerThousandClients is the admission-control acceptance hammer:
// 1000 concurrent clients against a server whose two execution slots are
// initially pinned by slow consumers (on this box fast handlers never hold
// a slot across a scheduling point, so saturation must be forced, exactly
// as a production slow consumer would). It asserts the shed-not-collapse
// contract end to end:
//
//	(a) totality — every request either succeeds or fails with the in-band
//	    busy error; nothing is dropped silently and no connection breaks
//	    (each client keeps using its connection after a shed),
//	(b) accounting — the server's shed counter equals the busy errors the
//	    clients collectively observed,
//	(c) monotonicity — a sampler taking registry snapshots throughout never
//	    sees a counter regress (torn reads would also trip -race).
//
// FIFO grant order and the queue-wait bound are asserted deterministically
// in TestAdmissionGateFIFO/TestAdmissionGateWaitBound; here the queue runs
// under real contention.
func TestHammerThousandClients(t *testing.T) {
	data := rel.NewInstance()
	for i := 0; i < 64; i++ {
		if _, err := data.Add("A.r", rel.Tuple{fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	addPinnable(t, data, "A.big") // the pinners' lever
	srv := NewServer(data)
	srv.MaxInflight = 2
	srv.MaxQueue = 8
	srv.QueueWait = 10 * time.Millisecond
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg)
	stopSnap := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		prev := map[string]uint64{}
		for {
			select {
			case <-stopSnap:
				return
			default:
			}
			snap := reg.Snapshot()
			for k, v := range snap.Counters {
				if v < prev[k] {
					t.Errorf("counter %s went backwards: %d -> %d", k, prev[k], v)
					return
				}
				prev[k] = v
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	const clients = 1000
	const opsPerClient = 2
	var ok, busy atomic.Uint64
	runWave := func(from, to int) {
		var wg sync.WaitGroup
		for i := from; i < to; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := Dial(addr)
				if err != nil {
					t.Errorf("client %d: dial: %v", i, err)
					return
				}
				defer c.Close()
				for op := 0; op < opsPerClient; op++ {
					// Mixed traffic: mostly reads, some mutations, all
					// through the admission gate.
					var err error
					if (i+op)%10 == 0 {
						_, err = c.Add("A.w", [][]string{{fmt.Sprintf("c%d", i), fmt.Sprintf("o%d", op)}})
					} else {
						_, err = c.Scan("A.r")
					}
					switch {
					case err == nil:
						ok.Add(1)
					case errors.Is(err, ErrBusy):
						busy.Add(1)
						// The connection must survive a shed: the next op
						// on this client proves it.
					default:
						t.Errorf("client %d op %d: non-busy failure: %v", i, op, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	// Wave 1 runs with both execution slots pinned: requests can only
	// queue (and time out) or shed, so this wave drives the busy path hard.
	release := pinServerSlots(t, srv, addr, "A.big", 2)
	runWave(0, clients/2)
	shedPinned := srv.admMetrics.shed.Load()
	if shedPinned < 100 {
		t.Errorf("shed = %d while slots were pinned, want >= 100", shedPinned)
	}
	// Wave 2 runs after the slots are freed: the same gate now admits.
	release()
	runWave(clients/2, clients)
	close(stopSnap)
	<-snapDone

	total := ok.Load() + busy.Load()
	if total != clients*opsPerClient {
		t.Fatalf("accounted %d outcomes, want %d (a request vanished without a busy error)", total, clients*opsPerClient)
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded after the slots were released")
	}
	shed := srv.admMetrics.shed.Load()
	if shed != busy.Load() {
		t.Fatalf("server shed %d, clients observed %d busy errors", shed, busy.Load())
	}
	// The two pinner scans ride on top of the hammer's requests.
	if n := srv.requests.Load(); n != clients*opsPerClient+2 {
		t.Fatalf("server requests = %d, want %d", n, clients*opsPerClient+2)
	}
	// A slot is released after its response is written, so the last client
	// can return before the server releases: wait for the drain.
	waitFor(t, "the gate to drain after the hammer", func() bool {
		return srv.admMetrics.inflight.Load() == 0 && srv.admMetrics.queued.Load() == 0
	})
	t.Logf("hammer: %d ok, %d busy, shed=%d, accept_retries=%d",
		ok.Load(), busy.Load(), shed, srv.acceptRetries.Load())
}
