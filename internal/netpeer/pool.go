package netpeer

import (
	"context"
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
// borrowed alike, and nothing else. A borrower first takes one of maxConns
// slots from slots, the admission gate with an unbounded queue and no wait
// bound; blocked borrowers wait there in FIFO order (one wire.pool_waits
// each). Holding a slot, it pops an idle connection or, with none idle,
// dials: a dial happens only when every open connection is borrowed, so
// open connections never exceed the slots. put returns a connection to the
// idle stack before it releases its slot, and the gate hands that slot to
// the oldest waiter, so the returned connection goes to the next borrower
// in line: an arrival never barges past a waiter.
type pool struct {
	addr     string
	counters *Counters
	// slots admits borrowers, maxConns at a time (see pool).
	slots *admission
	// ctx is cancelled when the pool closes: it ends every wait for a
	// slot and the busy-retry backoff of every call borrowing from this
	// pool (Executor.withClient).
	ctx    context.Context
	cancel context.CancelFunc

	mu   sync.Mutex
	idle []*Client // guarded by mu
}

func newPool(addr string, counters *Counters, maxConns int) *pool {
	ctx, cancel := context.WithCancel(context.Background())
	return &pool{
		addr:     addr,
		counters: counters,
		slots:    newAdmission(maxConns, -1, 0, &admissionMetrics{}),
		ctx:      ctx,
		cancel:   cancel,
	}
}

// get returns a connection to the pool's address: an idle one when
// available, unless fresh asks for a new one (withClient's retry after a
// reused connection broke). It first waits for a slot, in FIFO order, when
// the per-address cap is reached (one wire.pool_waits count however long
// the wait). A fresh borrower closes the idle connection it pops and dials
// on its slot. reused reports whether the connection predates this call.
func (p *pool) get(fresh bool) (c *Client, reused bool, err error) {
	queued, err := p.slots.acquire(p.ctx)
	if queued {
		p.counters.poolWaits.Add(1)
	}
	if err != nil {
		return nil, false, p.errClosed()
	}
	p.mu.Lock()
	if p.ctx.Err() != nil {
		p.mu.Unlock()
		p.slots.release()
		return nil, false, p.errClosed()
	}
	if n := len(p.idle); n > 0 {
		c = p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
	}
	p.mu.Unlock()
	if c != nil {
		if !fresh {
			return c, true, nil
		}
		c.Close()
	}
	c, err = p.dial()
	return c, false, err
}

func (p *pool) errClosed() error { return fmt.Errorf("netpeer: pool for %s is closed", p.addr) }

// dial opens a fresh connection wired to the pool's shared counters: the
// pool's one dial site. The caller must already hold a slot, which a
// failed dial releases.
func (p *pool) dial() (*Client, error) {
	c, err := Dial(p.addr)
	if err != nil {
		p.slots.release()
		return nil, err
	}
	p.counters.dials.Add(1)
	c.counters = p.counters
	return c, nil
}

// put returns a borrowed connection and its slot. A healthy connection
// goes onto the idle stack first, so the borrower the slot passes to finds
// it there; a broken one, or any returned after the pool closed, is closed
// instead.
func (p *pool) put(c *Client) {
	if c == nil {
		return
	}
	p.mu.Lock()
	if c.broken || p.ctx.Err() != nil {
		p.mu.Unlock()
		c.Close()
	} else {
		p.idle = append(p.idle, c)
		p.mu.Unlock()
	}
	p.slots.release()
}

// close cancels the pool's context, which ends every wait for a slot and
// every busy backoff, and closes every idle connection; in-flight
// borrowers finish their request and their put closes the connection.
// Closing twice is harmless.
func (p *pool) close() error {
	p.cancel()
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	var first error
	for _, c := range idle {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
