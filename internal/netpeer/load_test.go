package netpeer

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/rel"
)

// startGated serves data from a server whose admission gate admits
// maxInflight requests, queues maxQueue more for at most wait each, and
// sheds the rest.
func startGated(t *testing.T, data *rel.Instance, maxInflight, maxQueue int, wait time.Duration) (*Server, string) {
	t.Helper()
	srv := NewServer(data)
	srv.MaxInflight, srv.MaxQueue, srv.QueueWait = maxInflight, maxQueue, wait
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// TestOpenLoopMixedSchedule fires a seeded open-loop schedule of scans and
// adds at a server with two execution slots and a one-deep queue, one slot
// pinned by a slow consumer. Ops fire at their scheduled offsets whether
// or not earlier ones have finished, over raw clients, so the busy errors
// of both shed paths (queue full, and a queue wait past its microsecond
// bound) reach the caller. However the run interleaves, every op must be
// answered or shed, the server must count each request and each shed once,
// and a shed add must insert nothing.
func TestOpenLoopMixedSchedule(t *testing.T) {
	data := rel.NewInstance()
	// A scan of A.r holds the free slot for longer than the queue-wait
	// bound, so an op queued behind one times out.
	for i := 0; i < 2000; i++ {
		data.MustAdd("A.r", fmt.Sprintf("k%d", i), "v")
	}
	addPinnable(t, data, "A.big")
	srv, addr := startGated(t, data, 2, 1, time.Microsecond)
	requests0, shed0 := srv.requests.Load(), srv.admMetrics.shed.Load()
	release := pinServerSlots(t, srv, addr, "A.big", 1)

	const conns, ops = 8, 200
	clients := make(chan *Client, conns)
	for i := 0; i < conns; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients <- c
	}
	rng := rand.New(rand.NewSource(42))
	var (
		mu          sync.Mutex
		ok, busy    int
		acked       []rel.Tuple
		wg          sync.WaitGroup
		fire, start = time.Duration(0), time.Now()
	)
	for i := 0; i < ops; i++ {
		// Bursts of simultaneous arrivals, then a gap of up to 400 µs.
		if rng.Intn(3) == 0 {
			fire += time.Duration(rng.Intn(400)) * time.Microsecond
		}
		time.Sleep(time.Until(start.Add(fire)))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := <-clients
			var err error
			row := rel.Tuple{fmt.Sprintf("w%03d", i), "x"}
			add := i%10 == 9
			if add {
				_, err = c.Add("A.w", [][]string{row})
			} else {
				_, err = c.Scan("A.r")
			}
			clients <- c
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
				if add {
					acked = append(acked, row)
				}
			case errors.Is(err, ErrBusy):
				busy++
			default:
				t.Errorf("op %d: hard error: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	release()

	if ok+busy != ops {
		t.Fatalf("%d answered + %d shed = %d, want the %d fired", ok, busy, ok+busy, ops)
	}
	if n := srv.requests.Load() - requests0; n != ops+1 {
		t.Fatalf("server requests delta = %d, want %d fired + 1 pinned scan", n, ops)
	}
	if n := srv.admMetrics.shed.Load() - shed0; n != uint64(busy) {
		t.Fatalf("server shed delta = %d, clients saw %d busy errors", n, busy)
	}
	c := <-clients
	got, err := c.Scan("A.w")
	if err != nil {
		t.Fatal(err)
	}
	rel.SortTuples(got)
	rel.SortTuples(acked)
	if !tuplesEqual(got, acked) {
		t.Fatalf("A.w holds %v, want exactly the acknowledged adds %v", got, acked)
	}
	t.Logf("%d ops: %d answered, %d shed", ops, ok, busy)
}

// TestSlotReleasedWhenConsumerDies closes a slow consumer mid-stream: the
// server's write fails, and the slot the stream held must come back, so
// the gate drains to empty and the next request is admitted, not shed.
func TestSlotReleasedWhenConsumerDies(t *testing.T) {
	data := rel.NewInstance()
	addPinnable(t, data, "A.big")
	srv, addr := startGated(t, data, 1, 0, 0)
	slow := slowConsumer(t, addr, "A.big")
	waitFor(t, "the slow consumer to occupy the slot", func() bool { return srv.admMetrics.inflight.Load() == 1 })

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); !errors.Is(err, ErrBusy) {
		t.Fatalf("ping with the slot pinned = %v, want ErrBusy", err)
	}
	slow.Close()
	waitFor(t, "the gate to drain", func() bool {
		return srv.admMetrics.inflight.Load() == 0 && srv.admMetrics.queued.Load() == 0
	})
	shed := srv.admMetrics.shed.Load()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after the consumer died: %v", err)
	}
	if n := srv.admMetrics.shed.Load(); n != shed {
		t.Fatalf("shed went %d -> %d: the request after the release was shed", shed, n)
	}
}

// TestDistributedQueriesUnderShedding runs a cross-peer bind-join union
// over three one-slot, queueless peers, concurrently through one retrying
// executor, while a slow consumer pins the slot of the peer every disjunct
// starts from. Every answer must equal the unloaded one, and every busy
// frame the servers sent must have come back as exactly one retry.
func TestDistributedQueriesUnderShedding(t *testing.T) {
	keys := rel.NewInstance()
	for i := 0; i < 4; i++ {
		keys.MustAdd("S.keys", fmt.Sprintf("k%d", i))
	}
	addPinnable(t, keys, "A.big")
	left, right := rel.NewInstance(), rel.NewInstance()
	for i := 0; i < 400; i++ {
		left.MustAdd("L.rows", fmt.Sprintf("k%d", i%100), fmt.Sprintf("l%d", i))
		right.MustAdd("M.rows", fmt.Sprintf("k%d", i%100), fmt.Sprintf("m%d", i))
	}
	ex := NewExecutor()
	ex.busyRetries = 10000 // retry until admitted
	ex.busyBackoff = time.Millisecond
	t.Cleanup(func() { ex.Close() })
	var srvs []*Server
	var addrs []string
	for _, data := range []*rel.Instance{keys, left, right} {
		srv, addr := startGated(t, data, 1, 0, 0)
		if err := ex.Discover(addr); err != nil {
			t.Fatal(err)
		}
		srvs, addrs = append(srvs, srv), append(addrs, addr)
	}
	var u lang.UCQ
	for _, src := range []string{`q(x, y) :- S.keys(x), L.rows(x, y)`, `q(x, y) :- S.keys(x), M.rows(x, y)`} {
		q, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		u.Add(q)
	}
	want, err := ex.EvalUCQ(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 32 || ex.counters.bindBatches.Load() == 0 {
		t.Fatalf("unloaded union: %d rows, %d bind batches; want 32 rows from a bind join", len(want), ex.counters.bindBatches.Load())
	}

	release := pinServerSlots(t, srvs[0], addrs[0], "A.big", 1)
	const calls = 4
	got := make([][]rel.Tuple, calls)
	errs := make([]error, calls)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = ex.EvalUCQ(u)
		}()
	}
	waitFor(t, "every call to be shed at the pinned peer", func() bool { return srvs[0].admMetrics.shed.Load() >= calls })
	release()
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if !tuplesEqual(got[i], want) {
			t.Fatalf("call %d under shedding answered %v, want %v", i, got[i], want)
		}
	}
	var shed uint64
	for _, srv := range srvs {
		shed += srv.admMetrics.shed.Load()
	}
	if retries := ex.counters.busyRetries.Load(); shed != retries {
		t.Fatalf("servers shed %d requests, the executor retried %d", shed, retries)
	}
}
