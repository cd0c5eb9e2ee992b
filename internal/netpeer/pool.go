package netpeer

import (
	"fmt"
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
	// onMeta propagates response-piggybacked cardinalities from every
	// pooled connection back to the executor's estimate table.
	onMeta func(preds []string, cards []int)
	// maxConns caps total open connections (idle + borrowed) to addr.
	maxConns int

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

func newPool(addr string, counters *Counters, onMeta func(preds []string, cards []int), maxConns int) *pool {
	return &pool{addr: addr, counters: counters, onMeta: onMeta, maxConns: maxConns}
}

// get returns a connection to the pool's address, reusing an idle one when
// available. With no idle connection and the per-address cap reached, get
// blocks until a returned connection or freed slot is handed to it (FIFO;
// one wire.pool_waits count however long the wait). reused reports whether
// the connection predates this call: a reused connection may have died
// while idle, so callers issuing idempotent requests may retry once on a
// fresh dial (see Executor.withClientOnce).
func (p *pool) get() (c *Client, reused bool, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, fmt.Errorf("netpeer: pool for %s is closed", p.addr)
	}
	if n := len(p.idle); n > 0 {
		c = p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, true, nil
	}
	if p.active < p.maxConns {
		p.active++
		p.mu.Unlock()
		c, err = p.dial()
		return c, false, err
	}
	// Cap reached and nothing idle: queue for a handed-off connection or
	// slot. Whatever arrives is already ours — no retry race with borrowers
	// that show up while we were asleep.
	w := make(chan grant, 1)
	p.waiters = append(p.waiters, w)
	p.mu.Unlock()
	p.counters.poolWaits.Add(1)
	g := <-w
	switch {
	case g.c != nil:
		return g.c, true, nil
	case g.slot:
		c, err = p.dial()
		return c, false, err
	default:
		return nil, false, fmt.Errorf("netpeer: pool for %s is closed", p.addr)
	}
}

// dial opens a fresh connection wired to the pool's shared counters and
// meta feedback hook. The caller must already hold a connection slot
// (get's cap check, or redial's explicit acquire), which a failed dial
// releases.
func (p *pool) dial() (*Client, error) {
	c, err := Dial(p.addr)
	if err != nil {
		p.releaseSlot()
		return nil, err
	}
	p.counters.dials.Add(1)
	c.counters = p.counters
	c.onMeta = p.onMeta
	return c, nil
}

// redial acquires a connection slot (waiting under the cap like get, one
// wire.pool_waits count per call) and dials fresh, bypassing the idle list
// — the broken-reused-connection retry path, where the borrower
// specifically must not get another stale pooled connection. A pooled connection handed
// to a waiting redial is closed and its slot reused for the fresh dial.
func (p *pool) redial() (*Client, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("netpeer: pool for %s is closed", p.addr)
	}
	if p.active < p.maxConns {
		p.active++
		p.mu.Unlock()
		return p.dial()
	}
	w := make(chan grant, 1)
	p.waiters = append(p.waiters, w)
	p.mu.Unlock()
	p.counters.poolWaits.Add(1)
	g := <-w
	if g.c != nil {
		// This borrower must not reuse a pooled connection: close the one
		// handed over and dial fresh on its slot.
		g.c.Close()
	} else if !g.slot {
		return nil, fmt.Errorf("netpeer: pool for %s is closed", p.addr)
	}
	return p.dial()
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
	copy(p.waiters, p.waiters[1:])
	p.waiters[len(p.waiters)-1] = nil
	p.waiters = p.waiters[:len(p.waiters)-1]
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

// close closes every idle connection and marks the pool closed; in-flight
// borrowers finish their request and their put closes the connection.
// Waiters are all woken and observe the closed flag.
func (p *pool) close() error {
	p.mu.Lock()
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
