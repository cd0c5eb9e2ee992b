package netpeer

import (
	"fmt"
	"slices"
	"sync"
)

// defaultMaxConnsPerAddr caps the total connections (idle + borrowed) a
// pool opens to one address — the pool's one bound. Before this cap
// existed, get fell through to dial whenever the idle list was momentarily
// empty, so a 1k-client burst opened 1k sockets to one peer; now borrowers
// beyond the cap wait for a slot instead.
const defaultMaxConnsPerAddr = 64

// pool is a small per-address connection pool. A Client is not safe for
// concurrent use, so concurrent executor work (parallel UCQ disjuncts,
// overlapping EvalCQ calls from different goroutines) borrows a dedicated
// connection per request and returns it afterwards. Broken connections —
// where a transport-level failure left the stream desynced (request
// written, response unread) — are closed on return instead of pooled, so a
// later borrower can never read a stale frame.
//
// The pool bounds *total* connections per address (maxConns), idle and
// borrowed alike, and nothing else: every open connection holds a slot, a
// returned connection stays idle until reused, and a borrower finding no
// idle connection either dials (slot free) or waits for one (cap reached,
// counted in wire.pool_waits). Waiters are served strict FIFO by direct
// ownership transfer: a returned connection or a released slot is handed
// to the oldest waiter while the pool lock is held, never parked where a
// newly arriving borrower could steal it — wake-and-retry would let
// arrivals barge past woken waiters indefinitely under sustained
// contention.
type pool struct {
	addr     string
	counters *Counters
	// maxConns caps total open connections (idle + borrowed) to addr.
	maxConns int
	// done closes when the pool closes: it ends the busy-retry backoff of
	// every call borrowing from this pool (Executor.withClient).
	done chan struct{}

	mu      sync.Mutex
	idle    []*Client    // guarded by mu
	active  int          // guarded by mu (open connections: idle + borrowed)
	waiters []chan grant // guarded by mu (FIFO; head handed each returned conn or released slot)
	closed  bool         // guarded by mu
}

// grant is what a pool waiter is handed when capacity frees up: a pooled
// connection (ownership transferred directly, so no later arrival can
// steal it), a reserved connection slot (active already counts it; the
// receiver dials, and must releaseSlot on dial failure), or — as the zero
// value, delivered by closing the channel — notice that the pool closed.
type grant struct {
	c    *Client // non-nil: this pooled connection is yours
	slot bool    // a connection slot is reserved for you; dial it
}

func newPool(addr string, counters *Counters, maxConns int) *pool {
	return &pool{addr: addr, counters: counters, maxConns: maxConns, done: make(chan struct{})}
}

// get returns a connection to the pool's address: an idle one when
// available, unless fresh asks for a new one (withClient's retry after a
// reused connection broke). With nothing idle and the per-address cap
// reached, get blocks until a returned connection or freed slot is handed
// to it (FIFO; one wire.pool_waits count however long the wait). A fresh
// borrower at the cap closes an idle or handed-over connection and dials
// on its slot. reused reports whether the connection predates this call.
func (p *pool) get(fresh bool) (c *Client, reused bool, err error) {
	p.mu.Lock()
	n := len(p.idle)
	switch {
	case p.closed:
		p.mu.Unlock()
		return nil, false, p.errClosed()
	case n > 0 && (!fresh || p.active >= p.maxConns):
		c = p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		if !fresh {
			return c, true, nil
		}
		c.Close()
	case p.active < p.maxConns:
		p.active++
		p.mu.Unlock()
	default:
		// Cap reached and nothing idle: queue for a handed-off connection
		// or slot. Whatever arrives is already ours — no retry race with
		// borrowers that show up while we were asleep.
		w := make(chan grant, 1)
		p.waiters = append(p.waiters, w)
		p.mu.Unlock()
		p.counters.poolWaits.Add(1)
		switch g := <-w; {
		case g.c != nil && !fresh:
			return g.c, true, nil
		case g.c != nil:
			g.c.Close()
		case !g.slot:
			return nil, false, p.errClosed()
		}
	}
	c, err = p.dial()
	return c, false, err
}

func (p *pool) errClosed() error { return fmt.Errorf("netpeer: pool for %s is closed", p.addr) }

// dial opens a fresh connection wired to the pool's shared counters: the
// pool's one dial site. The caller must already hold a connection slot,
// which a failed dial releases.
func (p *pool) dial() (*Client, error) {
	c, err := Dial(p.addr)
	if err != nil {
		p.releaseSlot()
		return nil, err
	}
	p.counters.dials.Add(1)
	c.counters = p.counters
	return c, nil
}

// releaseSlot returns one connection slot, handing it to the oldest waiter
// if one is queued (the slot stays counted in active for the recipient).
func (p *pool) releaseSlot() {
	p.mu.Lock()
	p.active--
	if w := p.popWaiterLocked(); w != nil {
		p.active++
		p.mu.Unlock()
		w <- grant{slot: true}
		return
	}
	p.mu.Unlock()
}

// popWaiterLocked dequeues the oldest waiter, or returns nil. Callers hold
// p.mu.
func (p *pool) popWaiterLocked() chan grant {
	if len(p.waiters) == 0 {
		return nil
	}
	w := p.waiters[0]
	p.waiters = slices.Delete(p.waiters, 0, 1)
	return w
}

// put returns a connection for reuse. With a borrower waiting, a healthy
// connection transfers to it directly (never parked on the idle list where
// an arrival could steal it); broken connections, and any returned after
// the pool closed, are closed instead and their slot released (which in
// turn may hand the slot to a waiter).
func (p *pool) put(c *Client) {
	if c == nil {
		return
	}
	if c.broken {
		c.Close()
		p.releaseSlot()
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		p.releaseSlot()
		return
	}
	if w := p.popWaiterLocked(); w != nil {
		p.mu.Unlock()
		w <- grant{c: c}
		return
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

// close closes every idle connection, marks the pool closed and closes
// done; in-flight borrowers finish their request and their put closes the
// connection. Waiters are all woken and observe the closed flag. Closing
// twice is harmless.
func (p *pool) close() error {
	p.mu.Lock()
	if !p.closed {
		close(p.done)
	}
	idle := p.idle
	p.idle = nil
	p.active -= len(idle)
	waiters := p.waiters
	p.waiters = nil
	p.closed = true
	p.mu.Unlock()
	for _, w := range waiters {
		close(w)
	}
	var first error
	for _, c := range idle {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
