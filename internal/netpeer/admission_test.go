package netpeer

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rel"
	"repro/internal/wire"
)

// TestAdmissionGateFIFO drives the admission gate directly: with the one
// slot held, waiters must queue, be granted strictly in arrival order as
// the slot is released, and a waiter beyond the queue bound must shed
// immediately.
func TestAdmissionGateFIFO(t *testing.T) {
	g := newAdmission(1, 3, 5*time.Second, &admissionMetrics{})
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	order := make(chan int, 3)
	for i := 0; i < 3; i++ {
		i := i
		prev := g.m.queued.Load()
		go func() {
			if err := g.acquire(context.Background()); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
		}()
		// Wait for this goroutine to be queued before starting the next,
		// so arrival order is deterministic.
		deadline := time.Now().Add(5 * time.Second)
		for {
			if g.m.queued.Load() > prev {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if inflight, queued := g.m.inflight.Load(), g.m.queued.Load(); inflight != 1 || queued != 3 {
		t.Fatalf("load = (%d, %d), want (1, 3)", inflight, queued)
	}

	// Queue full: the next acquire sheds without blocking.
	start := time.Now()
	if err := g.acquire(context.Background()); !errors.Is(err, errShed) {
		t.Fatalf("over-queue acquire = %v, want errShed", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("shed acquire blocked instead of failing fast")
	}
	if n := g.m.shed.Load(); n != 1 {
		t.Fatalf("shed = %d, want 1", n)
	}

	// Each release grants the oldest waiter: completion order == arrival
	// order (no barging).
	for want := 0; want < 3; want++ {
		g.release()
		select {
		case got := <-order:
			if got != want {
				t.Fatalf("grant order: got waiter %d, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d never granted", want)
		}
	}
	g.release()
	if inflight, queued := g.m.inflight.Load(), g.m.queued.Load(); inflight != 0 || queued != 0 {
		t.Fatalf("final load = (%d, %d), want (0, 0)", inflight, queued)
	}
}

// TestAdmissionGateWaitBound sheds a queued request once its wait exceeds
// the bound, and honors context cancellation while queued.
func TestAdmissionGateWaitBound(t *testing.T) {
	g := newAdmission(1, 2, 50*time.Millisecond, &admissionMetrics{})
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := g.acquire(context.Background()); !errors.Is(err, errShed) {
		t.Fatalf("timed-out acquire = %v, want errShed", err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("queue wait %v, want ~50ms bound", elapsed)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	if err := g.acquire(ctx); err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, errShed) {
		t.Fatalf("cancelled acquire = %v", err)
	}
	g.release()
	if inflight, queued := g.m.inflight.Load(), g.m.queued.Load(); inflight != 0 || queued != 0 {
		t.Fatalf("load = (%d, %d) after drain, want (0, 0)", inflight, queued)
	}
}

// tempErr is a fake temporary network error for accept-loop injection.
type tempErr struct{}

func (tempErr) Error() string   { return "injected temporary accept failure" }
func (tempErr) Temporary() bool { return true }
func (tempErr) Timeout() bool   { return false }

// flakyListener fails its first n Accepts with a temporary error, then
// delegates — the EMFILE-under-load shape that used to kill the accept
// loop.
type flakyListener struct {
	net.Listener
	fails atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, tempErr{}
	}
	return l.Listener.Accept()
}

// TestAcceptLoopRetriesTemporaryErrors proves a run of temporary Accept
// failures no longer terminates serving: the loop backs off, retries, and
// the next client connects normally.
func TestAcceptLoopRetriesTemporaryErrors(t *testing.T) {
	data := rel.NewInstance()
	if _, err := data.Add("A.r", rel.Tuple{"1", "a"}); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: lis}
	fl.fails.Store(5)
	srv := NewServer(data)
	srv.ServeListener(fl)
	t.Cleanup(func() { srv.Close() })

	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after injected accept failures: %v", err)
	}
	if got := srv.acceptRetries.Load(); got < 5 {
		t.Fatalf("server.accept_retries = %d, want >= 5", got)
	}
}

// TestAddOp exercises the mutating wire op end to end: insert over the
// wire, observe the rows and the bumped generation, and reject bad rows.
func TestAddOp(t *testing.T) {
	srv, addr := startServerH(t, map[string][]rel.Tuple{"A.r": {{"1", "a"}}})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	gen, err := c.Add("A.r", [][]string{{"2", "b"}, {"3", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	if gen == 0 {
		t.Fatal("add returned generation 0")
	}
	rows, err := c.Scan("A.r")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("scan after add: %d rows, want 3", len(rows))
	}
	// Arity mismatch fails in-band; the connection survives.
	if _, err := c.Add("A.r", [][]string{{"only-one-column"}}); err == nil {
		t.Fatal("arity-mismatched add succeeded")
	}
	if _, err := c.Add("", [][]string{{"x"}}); err == nil {
		t.Fatal("add without pred succeeded")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection broken after in-band add errors: %v", err)
	}
	if srv.requests.Load() < 4 {
		t.Fatalf("requests = %d, want >= 4", srv.requests.Load())
	}
}

// TestCheckRowRejectsAddedRows: the server's row check runs before every
// insert, over the wire and through AddFact. An add batch stops at the
// first rejected row with the check's error in-band; rows before it stay
// inserted and the connection survives.
func TestCheckRowRejectsAddedRows(t *testing.T) {
	data := rel.NewInstance()
	data.MustAdd("A.r", "1", "a")
	srv := NewServer(data)
	srv.CheckRow = func(pred string, values []string) error {
		if values[1] == "bad" {
			return fmt.Errorf("%s%v contradicted", pred, values)
		}
		return nil
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Add("A.r", [][]string{{"2", "b"}, {"3", "bad"}, {"4", "d"}})
	if err == nil || !strings.Contains(err.Error(), "A.r[3 bad] contradicted") || !strings.Contains(err.Error(), "row 1 of 3") {
		t.Fatalf("add with a rejected row: %v", err)
	}
	if err := srv.AddFact("A.r", rel.Tuple{"5", "bad"}); err == nil {
		t.Fatal("AddFact inserted a rejected row")
	}
	if err := srv.AddFact("A.r", rel.Tuple{"6", "f"}); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Scan("A.r")
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.DistinctSorted(rows); !reflect.DeepEqual(got, []rel.Tuple{{"1", "a"}, {"2", "b"}, {"6", "f"}}) {
		t.Fatalf("rows after the rejections: %v", got)
	}
}

// TestPipelinedResponsesStayOrdered writes a burst of requests on one
// connection before reading anything, then checks every response comes
// back in request order (the connection's one loop answers FIFO).
func TestPipelinedResponsesStayOrdered(t *testing.T) {
	_, addr := startServerH(t, map[string][]rel.Tuple{"A.r": {{"1", "a"}}})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A scan of an absent relation answers with one final frame naming it,
	// so each response is attributable to its request.
	const n = 40 // the whole burst sits in the socket before the first answer
	var batch []byte
	for i := 0; i < n; i++ {
		batch = wire.AppendRequest(batch, &wire.Request{Op: "scan", Pred: fmt.Sprintf("p%d", i)})
	}
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	c := &Client{conn: conn, br: bufio.NewReaderSize(conn, 64*1024), maxFrame: wire.DefaultMaxFrame, counters: &Counters{}}
	for i := 0; i < n; i++ {
		resp, err := c.readStream(nil)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		want := fmt.Sprintf("p%d", i)
		if len(resp.Preds) != 1 || resp.Preds[0] != want {
			t.Fatalf("response %d echoed %v, want [%s]", i, resp.Preds, want)
		}
	}
}

// TestDrainFinishesPipelinedWork verifies Drain lets requests already
// written by a client finish before the connection winds down, and that an
// idle connection is disconnected cleanly (no read-error accounting).
func TestDrainFinishesPipelinedWork(t *testing.T) {
	srv, addr := startServerH(t, map[string][]rel.Tuple{"A.r": {{"1", "a"}}})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var batch []byte
	for i := 0; i < 3; i++ {
		batch = wire.AppendRequest(batch, &wire.Request{Op: "scan", Pred: fmt.Sprintf("p%d", i)})
	}
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	// Give the server a moment to read the burst, then drain concurrently
	// with reading the answers.
	time.Sleep(50 * time.Millisecond)
	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(5 * time.Second) }()

	c := &Client{conn: conn, br: bufio.NewReaderSize(conn, 64*1024), maxFrame: wire.DefaultMaxFrame, counters: &Counters{}}
	for i := 0; i < 3; i++ {
		resp, err := c.readStream(nil)
		if err != nil {
			t.Fatalf("response %d during drain: %v", i, err)
		}
		if want := fmt.Sprintf("p%d", i); len(resp.Preds) != 1 || resp.Preds[0] != want {
			t.Fatalf("response %d echoed %v, want [%s]", i, resp.Preds, want)
		}
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := srv.readErrors.Load(); got != 0 {
		t.Fatalf("server.read_errors = %d after graceful drain, want 0", got)
	}
}

// TestOneGoroutinePerConnection: a connection is served by one loop —
// read, admit, handle, write — with no read-ahead goroutine beside it, so
// 50 idle connections cost the server 50 goroutines, not 100.
func TestOneGoroutinePerConnection(t *testing.T) {
	_, addr := startServerH(t, map[string][]rel.Tuple{"A.r": {{"1", "a"}}})
	const conns, slack = 50, 10
	before := runtime.NumGoroutine()
	for i := 0; i < conns; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	if grew := runtime.NumGoroutine() - before; grew > conns+slack {
		t.Fatalf("%d idle connections grew the goroutine count by %d, want at most %d", conns, grew, conns+slack)
	}
}

// TestPoolKeepsBurstConnections: the pool's one bound is the total
// connection cap (idle + borrowed), so a second 16-way burst against the
// same peer reuses every connection the first one opened — no new dials.
func TestPoolKeepsBurstConnections(t *testing.T) {
	_, addr := startServerH(t, map[string][]rel.Tuple{"A.r": {{"1", "a"}}})
	ex := NewExecutor()
	t.Cleanup(func() { ex.Close() })
	const width = 16
	burst := func() uint64 {
		before := ex.counters.dials.Load()
		var borrowed, done sync.WaitGroup
		borrowed.Add(width)
		for i := 0; i < width; i++ {
			done.Add(1)
			go func() {
				defer done.Done()
				err := ex.withClient(addr, func(c *Client) error {
					// Hold the connection until all 16 are borrowed at once.
					borrowed.Done()
					borrowed.Wait()
					return c.Ping()
				})
				if err != nil {
					t.Errorf("ping: %v", err)
				}
			}()
		}
		done.Wait()
		return ex.counters.dials.Load() - before
	}
	if d := burst(); d != width {
		t.Fatalf("first burst dialed %d connections, want %d", d, width)
	}
	if d := burst(); d != 0 {
		t.Fatalf("second burst dialed %d connections, want 0 (the first burst's were closed)", d)
	}
}

// TestPoolCapsDialStorm floods one pool from many goroutines and checks
// the per-address connection cap holds: dials stay at or below the cap
// while excess borrowers wait (counted) instead of opening sockets.
func TestPoolCapsDialStorm(t *testing.T) {
	_, addr := startServerH(t, map[string][]rel.Tuple{"A.r": {{"1", "a"}}})
	ex := NewExecutor()
	ex.maxConnsPerAddr = 4
	t.Cleanup(func() { ex.Close() })
	if err := ex.Discover(addr); err != nil {
		t.Fatal(err)
	}

	const borrowers = 64
	var wg sync.WaitGroup
	for i := 0; i < borrowers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ex.withClient(addr, func(c *Client) error { return c.Ping() }); err != nil {
				t.Errorf("ping: %v", err)
			}
		}()
	}
	wg.Wait()
	if dials := ex.counters.dials.Load(); dials > 4 {
		t.Fatalf("wire.dials = %d with cap 4: dial storm not contained", dials)
	}
	if ex.counters.poolWaits.Load() == 0 {
		t.Fatalf("wire.pool_waits = 0 with %d borrowers over cap 4", borrowers)
	}
}

// TestBusyRetryMasksShedding pins a one-slot, no-queue server's only slot
// with a slow consumer (a scan whose client stops reading, so the server
// blocks writing chunks), confirms concurrent executor requests are shed
// and retried behind jittered backoff until the slot frees, and checks the
// server's shed counter and the client pool's retry counter agree exactly.
func TestBusyRetryMasksShedding(t *testing.T) {
	data := rel.NewInstance()
	addPinnable(t, data, "A.big")
	srv := NewServer(data)
	srv.MaxInflight = 1
	srv.MaxQueue = 0
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// The slow consumer: request the big scan, read nothing yet.
	slow := slowConsumer(t, addr, "A.big")
	waitFor(t, "the slow consumer to occupy the slot", func() bool { return srv.admMetrics.inflight.Load() == 1 })
	deadline := time.Now().Add(10 * time.Second)

	ex := NewExecutor()
	ex.busyRetries = 10000 // effectively retry-until-admitted for this test
	ex.busyBackoff = time.Millisecond
	t.Cleanup(func() { ex.Close() })
	ex.Route("A.big", addr)

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ex.withClient(addr, func(c *Client) error { return c.Ping() }); err != nil {
				t.Errorf("ping: %v", err)
			}
		}()
	}
	// Let the workers shed against the pinned slot, then release it by
	// draining the slow consumer.
	for srv.admMetrics.shed.Load() < workers {
		if time.Now().After(deadline) {
			t.Fatalf("shed stuck at %d with the slot pinned", srv.admMetrics.shed.Load())
		}
		time.Sleep(time.Millisecond)
	}
	go io.Copy(io.Discard, slow)
	wg.Wait()

	shed, retries := srv.admMetrics.shed.Load(), ex.counters.busyRetries.Load()
	if shed == 0 {
		t.Fatal("no sheds despite pinned slot")
	}
	// Shed accounting: every busy frame the server sent was received by
	// exactly one caller, which (having never surfaced an error) retried.
	if shed != retries {
		t.Fatalf("server shed %d but clients retried %d", shed, retries)
	}
	if queued := srv.admMetrics.queued.Load(); queued != 0 {
		t.Fatalf("gate not drained: queued=%d", queued)
	}
}

// TestPoolHandsConnectionToWaiter pins the FIFO ownership transfer: a
// connection returned while a borrower waits at the cap must be handed to
// that waiter directly — under wake-and-retry the woken waiter raced every
// new arrival for the idle list and could lose (and re-queue at the back)
// indefinitely.
func TestPoolHandsConnectionToWaiter(t *testing.T) {
	_, addr := startServerH(t, map[string][]rel.Tuple{"A.r": {{"1", "a"}}})
	ctrs := &Counters{}
	p := newPool(addr, ctrs, 1)
	t.Cleanup(func() { p.close() })

	c, reused, err := p.get(false)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatal("first borrow reported reused")
	}
	type borrow struct {
		c      *Client
		reused bool
		err    error
	}
	got := make(chan borrow, 1)
	go func() {
		c2, r2, err2 := p.get(false)
		got <- borrow{c2, r2, err2}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		n := len(p.waiters)
		p.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("borrower never queued at the cap")
		}
		time.Sleep(time.Millisecond)
	}
	p.put(c)
	b := <-got
	if b.err != nil {
		t.Fatal(b.err)
	}
	if b.c != c {
		t.Fatal("waiter got a different connection: returned one was not handed off")
	}
	if !b.reused {
		t.Fatal("handed-off connection not reported as reused")
	}
	p.mu.Lock()
	idle := len(p.idle)
	p.mu.Unlock()
	if idle != 0 {
		t.Fatalf("idle list holds %d connections during a handoff, want 0", idle)
	}
	if got := ctrs.poolWaits.Load(); got != 1 {
		t.Fatalf("poolWaits = %d for one blocked borrow, want 1", got)
	}
	p.put(b.c)
}

// TestFreshGetWaitHandsOffAndCountsOnce covers the broken-connection
// retry's borrow, get(true), waiting at the cap: a healthy connection
// returned meanwhile is handed to the waiting borrower, which must close it
// (it specifically needs a fresh dial), reuse its slot, and count exactly
// one pool wait for the whole call.
func TestFreshGetWaitHandsOffAndCountsOnce(t *testing.T) {
	_, addr := startServerH(t, map[string][]rel.Tuple{"A.r": {{"1", "a"}}})
	ctrs := &Counters{}
	p := newPool(addr, ctrs, 1)
	t.Cleanup(func() { p.close() })

	c, _, err := p.get(false)
	if err != nil {
		t.Fatal(err)
	}
	type borrow struct {
		c      *Client
		reused bool
		err    error
	}
	got := make(chan borrow, 1)
	go func() {
		c2, r2, err2 := p.get(true)
		got <- borrow{c2, r2, err2}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		n := len(p.waiters)
		p.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fresh borrower never queued at the cap")
		}
		time.Sleep(time.Millisecond)
	}
	p.put(c)
	b := <-got
	if b.err != nil {
		t.Fatal(b.err)
	}
	if b.c == c || b.reused {
		t.Fatal("fresh borrower reused the pooled connection instead of dialing fresh")
	}
	if got := ctrs.poolWaits.Load(); got != 1 {
		t.Fatalf("poolWaits = %d for one blocked fresh borrow, want 1", got)
	}
	p.mu.Lock()
	active := p.active
	p.mu.Unlock()
	if active != 1 {
		t.Fatalf("active = %d after handoff to a fresh borrow, want 1 (slot accounting drifted)", active)
	}
	p.put(b.c)
}

// TestFreshGetAtCapClosesIdle: a fresh borrow at the cap while the only
// connections are idle must not wait — no borrower would ever return one
// to hand it — but close an idle connection and dial on its slot.
func TestFreshGetAtCapClosesIdle(t *testing.T) {
	_, addr := startServerH(t, map[string][]rel.Tuple{"A.r": {{"1", "a"}}})
	ctrs := &Counters{}
	p := newPool(addr, ctrs, 1)
	t.Cleanup(func() { p.close() })
	c, _, err := p.get(false)
	if err != nil {
		t.Fatal(err)
	}
	p.put(c)
	got := make(chan *Client, 1)
	go func() {
		c2, reused, err := p.get(true)
		if err != nil || reused {
			t.Errorf("fresh get at the cap: reused=%v, %v", reused, err)
		}
		got <- c2
	}()
	select {
	case c2 := <-got:
		if c2 == c {
			t.Fatal("fresh get returned the idle connection")
		}
		p.put(c2)
	case <-time.After(5 * time.Second):
		p.close() // wakes the stuck borrower
		t.Fatal("fresh get at the cap waited behind an idle connection")
	}
	p.mu.Lock()
	active, idle := p.active, len(p.idle)
	p.mu.Unlock()
	if active != 1 || idle != 1 || ctrs.poolWaits.Load() != 0 || ctrs.dials.Load() != 2 {
		t.Fatalf("active %d, idle %d, %d waits, %d dials; want 1, 1, 0 and 2", active, idle, ctrs.poolWaits.Load(), ctrs.dials.Load())
	}
}

// TestWithClientFreshRetryOncePerCall pins withClient's contract: a
// reused connection that breaks is retried on a fresh connection at most
// once per call, even when a busy retry follows and the next reused
// connection breaks too; and a fresh dial that fails reports fn's error,
// not the dial's. fn never touches the wire, so a bare listener serves.
func TestWithClientFreshRetryOncePerCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 16) // more than the test ever dials
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		for {
			select {
			case conn := <-accepted:
				conn.Close()
			default:
				return
			}
		}
	})
	addr := ln.Addr().String()
	ex := NewExecutor()
	ex.busyBackoff = time.Millisecond
	t.Cleanup(func() { ex.Close() })
	idle := func() { // leaves one idle pooled connection
		if err := ex.withClient(addr, func(*Client) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	errBroke := errors.New("connection broke")
	idle()

	// Break a reused connection, get shed on the fresh one, then break the
	// reused connection the busy retry borrows: the call ends there.
	calls, dials := 0, ex.counters.dials.Load()
	err = ex.withClient(addr, func(c *Client) error {
		calls++
		switch calls {
		case 1, 3:
			c.broken = true
			return errBroke
		case 2:
			return fmt.Errorf("%w: shed", ErrBusy)
		}
		return nil
	})
	if !errors.Is(err, errBroke) || calls != 3 {
		t.Fatalf("withClient returned %v after %d calls, want the break after 3: a second fresh retry ran", err, calls)
	}
	if d := ex.counters.dials.Load() - dials; d != 1 {
		t.Fatalf("%d dials in one call, want 1 fresh connection", d)
	}
	if n := ex.counters.busyRetries.Load(); n != 1 {
		t.Fatalf("wire.busy_retries = %d, want 1", n)
	}

	// The fresh dial fails once the listener is gone: fn's error surfaces.
	idle()
	ln.Close()
	err = ex.withClient(addr, func(c *Client) error {
		c.broken = true
		return errBroke
	})
	if !errors.Is(err, errBroke) {
		t.Fatalf("withClient with a failed fresh dial returned %v, want fn's error", err)
	}
}

// TestCloseAbortsBusyBackoff pins the only admission slot with a slow
// consumer so a concurrent request is shed and enters the busy-retry
// backoff loop, then closes the executor: the sleeper must surface its
// busy error promptly instead of retrying against the pinned slot for the
// rest of its (effectively unbounded) retry budget.
func TestCloseAbortsBusyBackoff(t *testing.T) {
	data := rel.NewInstance()
	addPinnable(t, data, "A.big")
	srv := NewServer(data)
	srv.MaxInflight = 1
	srv.MaxQueue = 0
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	slow := slowConsumer(t, addr, "A.big")
	waitFor(t, "the slow consumer to occupy the slot", func() bool { return srv.admMetrics.inflight.Load() == 1 })
	deadline := time.Now().Add(10 * time.Second)

	ex := NewExecutor()
	t.Cleanup(func() { ex.Close() })
	ex.busyRetries = 1 << 20 // never exhausted while the slot stays pinned
	ex.busyBackoff = maxBusyBackoff
	ex.Route("A.big", addr)
	errCh := make(chan error, 1)
	go func() {
		errCh <- ex.withClient(addr, func(c *Client) error { return c.Ping() })
	}()
	// Wait until the caller is inside the retry loop (the counter bumps
	// just before each backoff sleep), then close under it.
	for ex.counters.busyRetries.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never shed into the retry loop")
		}
		time.Sleep(time.Millisecond)
	}
	ex.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrBusy) {
			t.Fatalf("aborted retry returned %v, want ErrBusy", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("withClient still retrying after Close: backoff sleep not aborted")
	}
	go io.Copy(io.Discard, slow)
}
