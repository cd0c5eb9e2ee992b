package netpeer

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/obs"
)

// errShed is returned by admission.acquire when a request must be refused:
// the in-flight limit is reached and the wait queue is full, or the
// request's queue wait exceeded the bound. The server answers it with an
// in-band busy error frame; the request has done no work and is safe to
// retry after a backoff.
var errShed = errors.New("netpeer: admission queue full")

// admission is netpeer's one FIFO gate: at most maxInflight holders at
// once, up to maxQueue more wait in FIFO order for at most maxWait each,
// and everything beyond that is shed. Slots released while the queue is
// non-empty transfer directly to the oldest waiter, so admission order is
// the order acquire was called in (no barging: a new arrival never
// overtakes a waiter). The server's gate admits requests; a pool's admits
// borrowers, one per open connection, with a queue that has no bound on
// its length (maxQueue < 0) or its wait (maxWait 0).
type admission struct {
	maxInflight int
	maxQueue    int
	maxWait     time.Duration
	// m is the owning server's admission instruments; m.inflight is the
	// gate's in-flight count itself, written only under mu.
	m *admissionMetrics

	mu    sync.Mutex
	queue []chan struct{} // guarded by mu (FIFO; head at index 0, closed to grant)
}

// admissionMetrics are the instruments a server's admission gate updates.
// The server holds them, so they exist (at zero) before the gate does.
type admissionMetrics struct {
	// wait times successful queue waits (admitted requests only; a shed
	// request's wait is not a service latency).
	wait obs.Histogram
	// shed counts requests refused with a busy error, for any reason
	// (queue full, wait bound exceeded).
	shed obs.Counter
	// inflight and queued are the requests executing and waiting for a
	// slot.
	inflight, queued obs.Gauge
}

// newAdmission builds a gate updating m; maxInflight must be positive (a
// nil gate is the admission-off mode). A negative maxQueue leaves the
// queue unbounded, and a zero maxWait leaves a wait unbounded.
func newAdmission(maxInflight, maxQueue int, maxWait time.Duration, m *admissionMetrics) *admission {
	return &admission{
		maxInflight: maxInflight,
		maxQueue:    maxQueue,
		maxWait:     maxWait,
		m:           m,
	}
}

// acquire blocks until a slot is granted, the queue-wait bound expires, or
// ctx is done. It returns nil when admitted (the caller must release),
// errShed when the request must be answered busy, and ctx.Err() on
// shutdown; queued reports whether the call waited in the queue, whatever
// its outcome. A nil gate admits everything.
func (g *admission) acquire(ctx context.Context) (queued bool, err error) {
	if g == nil {
		return false, nil
	}
	g.mu.Lock()
	// Fast path only when nobody is queued, so a burst cannot barge past
	// requests already waiting.
	if g.m.inflight.Load() < int64(g.maxInflight) && len(g.queue) == 0 {
		g.m.inflight.Add(1)
		g.mu.Unlock()
		return false, nil
	}
	if g.maxQueue >= 0 && len(g.queue) >= g.maxQueue {
		g.mu.Unlock()
		g.m.shed.Inc()
		return false, errShed
	}
	granted := make(chan struct{})
	g.queue = append(g.queue, granted)
	g.m.queued.Set(int64(len(g.queue)))
	g.mu.Unlock()

	start := time.Now()
	var expired <-chan time.Time
	if g.maxWait > 0 {
		timer := time.NewTimer(g.maxWait)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case <-granted:
		g.m.wait.Observe(time.Since(start))
		return true, nil
	case <-expired:
	case <-ctx.Done():
	}
	// Timed out or shutting down: withdraw from the queue — unless a grant
	// raced in between the wakeup and the lock, in which case the slot is
	// ours and must be kept (dropping it would leak an inflight count).
	g.mu.Lock()
	for i, w := range g.queue {
		if w == granted {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			g.m.queued.Set(int64(len(g.queue)))
			g.mu.Unlock()
			if err := ctx.Err(); err != nil {
				return true, err
			}
			g.m.shed.Inc()
			return true, errShed
		}
	}
	g.mu.Unlock()
	<-granted // already closed
	g.m.wait.Observe(time.Since(start))
	return true, nil
}

// release frees one slot: the oldest waiter (if any) inherits it, else the
// in-flight count drops. A nil gate is a no-op.
func (g *admission) release() {
	if g == nil {
		return
	}
	g.mu.Lock()
	if len(g.queue) > 0 {
		granted := g.queue[0]
		copy(g.queue, g.queue[1:])
		g.queue[len(g.queue)-1] = nil
		g.queue = g.queue[:len(g.queue)-1]
		g.m.queued.Set(int64(len(g.queue)))
		g.mu.Unlock()
		close(granted)
		return
	}
	g.m.inflight.Add(-1)
	g.mu.Unlock()
}
