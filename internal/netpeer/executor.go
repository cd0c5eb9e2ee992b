package netpeer

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rel"
)

// defaultBusyRetries and defaultBusyBackoff shape the client-side response
// to admission-control shedding: a shed request retries up to
// defaultBusyRetries times, sleeping a uniform random duration in
// (0, defaultBusyBackoff<<attempt] before each retry (full jitter).
const (
	defaultBusyRetries = 3
	defaultBusyBackoff = 10 * time.Millisecond
	// maxBusyBackoff caps one busy-retry backoff step regardless of the
	// attempt count (keeps long retry budgets from sleeping unboundedly).
	maxBusyBackoff = time.Second
)

// Executor evaluates reformulated unions of conjunctive queries across the
// peer network. It routes each conjunctive rewriting to the single peer
// serving all its stored relations when possible (full push-down); when a
// rewriting spans peers it runs an adaptive bind-join:
//
//   - The join itself is engine.BindJoin: the engine compiles the
//     rewriting as it compiles a local plan, its atoms ordered by the
//     planner's selectivity heuristic over the cardinalities learned at
//     Discover time and refreshed from the estimates piggybacked on every
//     response, and extends a partial join step by step. The executor
//     routes, and supplies the fetch callback (fetchAtom). A rewriting
//     reads its atoms' routes, cardinalities included, once, at its start:
//     the join order and every bind-versus-fetch choice use that copy.
//   - Per atom the executor ships the distinct values the partial holds at
//     the atom's bound positions ("bind" op) in batches, one request after
//     another, unless the peer's advertised cardinality says the whole
//     selection-pushed relation is smaller than the key set: then fetching
//     it outright moves fewer bytes, and the executor adapts. A relation
//     whose peer has reported no cardinality is bound.
//   - Every remote fetch is a fragment: a pushed-down CQ — a whole
//     rewriting, or an atom's selection (constants and repeated variables,
//     both applied by the peer) — and, for an atom's bind probe, the key
//     set bound into that selection. Fragments are cached *across queries*
//     in an engine.LRU whose entries cost their bytes, sorted and distinct,
//     keyed by peer, the CQ's canonical string and, for a bind, the bound
//     positions and the key set's hash (fragKey). An entry is stamped with its
//     relation's generation as reported by the fetch's own response frames
//     (a fetch whose frames disagree — a mutation landed mid-fetch — is not
//     cached, and neither is a push-down that reads several relations: a
//     peer answers unchanged for one relation only). The next fetch of a
//     cached fragment carries its generation, and the peer answers
//     "unchanged" with no rows while that generation is current: a repeat
//     of an identical query ships zero rows in one request per atom or
//     push-down, while mutations on the peer refresh exactly the fragments
//     of the mutated relation.
//   - Within one query, fetches are shared *across disjuncts* under the
//     same key: the rewritings of one rule-goal tree share goal nodes, so
//     one stored atom with one bound-key set turns up in several
//     disjuncts. The first disjunct that needs a key fetches it, through
//     the cache as above; every other one waits for that fetch and reuses
//     its rows or error. A query sends one request per distinct fetch, not
//     one per disjunct's atom.
//
// UCQ disjuncts are evaluated concurrently (engine.EvalUnion); all methods
// are safe for concurrent use, multiplexing wire traffic over per-address
// connection pools (a single Client is not safe for concurrent use). Every
// remote call — Discover's catalog and each fragment fetch — goes through
// withClient, the one place that borrows a connection, dials, retries and
// gives up: a reused connection that fails at the transport level (say,
// because the peer restarted while it sat idle) is retried once per call
// on a fresh connection, and a request shed by a peer's admission gate is
// retried after a full-jitter exponential backoff that Close ends.
type Executor struct {
	// maxConnsPerAddr, busyRetries and busyBackoff hold the default*
	// constants of the same names; NewExecutor sets them, and tests shrink
	// them before issuing queries (pools capture the first when first
	// created for an address).
	maxConnsPerAddr int
	busyRetries     int
	busyBackoff     time.Duration

	mu sync.Mutex
	// routes maps each stored relation to its serving peer and
	// cardinality estimate. Guarded by mu.
	routes map[string]route
	// pools holds one connection pool per peer address. Guarded by mu.
	pools map[string]*pool
	// frags caches fetched fragments — push-downs and binds —
	// across queries.
	frags *fragCache
	// counters aggregates wire traffic across all pooled connections.
	counters Counters
	// bindJoinCompiles counts the plans engine.BindJoin compiles, one per
	// cross-peer rewriting evaluated.
	bindJoinCompiles obs.Counter
}

// NewExecutor creates an executor with an empty routing table.
func NewExecutor() *Executor {
	return &Executor{
		maxConnsPerAddr: defaultMaxConnsPerAddr,
		busyRetries:     defaultBusyRetries,
		busyBackoff:     defaultBusyBackoff,
		routes:          map[string]route{},
		pools:           map[string]*pool{},
		frags:           newFragCache(defaultFragBytes),
	}
}

// route is where a stored relation is served: the serving peer's address,
// and the relation's cardinality estimate, seeded by Discover and
// refreshed from the estimates piggybacked on every response (-1 until a
// peer has reported one). The estimate feeds the join-order heuristic and
// the adaptive bind-vs-fetch choice; a stale one shifts the plan, never
// the answer.
type route struct {
	addr string
	card int
}

// Route declares that the peer at addr serves the given stored relation,
// overriding any route it had. The relation has no cardinality estimate
// until a response from that peer reports one.
func (e *Executor) Route(pred, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.routes[pred] = route{addr: addr, card: -1}
}

// Discover connects to addr, asks for its catalog, and routes every served
// relation to it, recording cardinalities for join ordering. A relation
// already routed to another peer is an error naming both, and then none of
// the catalog's relations is routed: a second owner would silently answer
// for the first one's rows. Re-discovering the same peer refreshes its
// estimates; Route is the explicit override.
func (e *Executor) Discover(addr string) error {
	var cards map[string]int
	if err := e.withClient(addr, func(c *Client) (err error) {
		cards, err = c.CatalogStats()
		return err
	}); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for p := range cards {
		if r, ok := e.routes[p]; ok && r.addr != addr {
			return fmt.Errorf("netpeer: %s is served by %s and by %s", p, r.addr, addr)
		}
	}
	for p, n := range cards {
		e.routes[p] = route{addr: addr, card: n}
	}
	return nil
}

// updateMeta folds cardinalities piggybacked on responses into the route
// table (only for relations already routed, so a response cannot invent
// routes).
func (e *Executor) updateMeta(preds []string, cards []int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, p := range preds[:min(len(preds), len(cards))] {
		if r, ok := e.routes[p]; ok {
			r.card = cards[i]
			e.routes[p] = r
		}
	}
}

// Close closes all pooled connections and drops the fragment cache.
// Closing a pool ends the busy-retry backoff of every call borrowing from
// it: the caller sees the busy error immediately instead of pinning Close
// behind up to seconds of backoff. The executor stays usable: later calls
// get new pools, dial fresh connections, refill the cache, and retry busy
// errors as usual.
func (e *Executor) Close() error {
	e.mu.Lock()
	pools := e.pools
	e.pools = map[string]*pool{}
	e.mu.Unlock()
	e.frags.lru.Clear()
	var first error
	for _, p := range pools {
		if err := p.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pool returns (creating if needed) the connection pool for addr.
func (e *Executor) pool(addr string) *pool {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.pools[addr]
	if !ok {
		p = newPool(addr, &e.counters, e.maxConnsPerAddr)
		e.pools[addr] = p
	}
	return p
}

// withClient borrows a pooled connection to addr, runs fn on it and
// returns it: the executor's one call path to a peer. It retries fn for
// two reasons. A reused connection that failed at the transport level may
// have died while idle, so fn runs again on a fresh connection, once per
// call (every request the executor sends is an idempotent read). A request
// the peer shed with a busy error never started, so fn runs again after a
// full-jitter exponential backoff, up to busyRetries times; closing the
// pool (Close) ends the backoff, and the busy error surfaces at once. A
// retry whose borrow fails (the fresh dial, or a pool closed meanwhile)
// reports fn's last error. Streaming callers must
// tolerate re-delivery (the join state dedups remote tuples). Broken
// connections never return to the pool (put closes them).
func (e *Executor) withClient(addr string, fn func(*Client) error) error {
	p := e.pool(addr)
	var err error // fn's last error
	fresh, freshUsed := false, false
	for busy := 0; ; {
		c, reused, gerr := p.get(fresh)
		if gerr != nil {
			if err != nil {
				return err // a retry's borrow failed: report why fn is retried
			}
			return gerr
		}
		err = fn(c)
		broken := c.broken
		p.put(c)
		fresh = false
		switch {
		case err == nil:
			return nil
		case broken && reused && !freshUsed:
			fresh, freshUsed = true, true
		case errors.Is(err, ErrBusy) && busy < e.busyRetries:
			e.counters.busyRetries.Add(1)
			// Full jitter: a uniform sleep in (0, busyBackoff<<busy]
			// decorrelates the retries of a shed burst instead of replaying
			// it in lockstep. The step is capped so high retry budgets
			// neither overflow the shift nor sleep unboundedly.
			step := e.busyBackoff
			for i := 0; i < busy && step < maxBusyBackoff; i++ {
				step <<= 1
			}
			timer := time.NewTimer(time.Duration(1 + rand.Int64N(int64(min(step, maxBusyBackoff)))))
			select {
			case <-timer.C:
			case <-p.ctx.Done():
				timer.Stop()
				return err
			}
			busy++
		default:
			return err
		}
	}
}

// EvalUCQ evaluates a union of conjunctive rewritings over the network,
// returning the distinct union of the disjuncts' answers, sorted.
// Disjuncts are independent, so they fan out as engine.EvalUnion does; on
// error the first failing disjunct (by position) among those that ran
// wins. The returned slice is the caller's, but its tuples may be the
// fragment cache's (a push-down served unchanged returns the cached rows):
// callers must not mutate an answer's values.
func (e *Executor) EvalUCQ(u lang.UCQ) ([]rel.Tuple, error) { return e.EvalUCQSpan(u, nil) }

// EvalUCQSpan is EvalUCQ with tracing: one "eval.cq" child span per
// disjunct, each holding that disjunct's push-down or per-atom bind-join
// spans (with the serving peers' remote spans adopted under them). A nil
// span evaluates identically with no overhead beyond the nil checks — it
// satisfies pdms.UCQEvaluator.
//
// The disjuncts share one table of fetches (see fragment): each distinct
// (peer, atom pattern, bound-key set) fetch and each distinct push-down is
// sent once per call, and a disjunct that needs a fetch another one started
// waits for it; its atom or pushdown span reads src=shared. Like EvalUCQ's,
// the answer's tuples may be shared with the fragment cache and must not be
// mutated. Fail-fast matters here: against a dead peer
// every disjunct not yet started would pay its own dial failure.
func (e *Executor) EvalUCQSpan(u lang.UCQ, sp *obs.Span) ([]rel.Tuple, error) {
	fl := &flights{}
	return engine.EvalUnion(u, sp, func(q lang.CQ, cs *obs.Span) ([]rel.Tuple, error) {
		return e.evalCQ(q, fl, cs)
	})
}

// EvalCQ evaluates one conjunctive rewriting over the network, returning
// its distinct answers, sorted, in a slice of the caller's; as with
// EvalUCQ, the tuples may be shared with the fragment cache.
func (e *Executor) EvalCQ(q lang.CQ) ([]rel.Tuple, error) {
	rows, err := e.evalCQ(q, &flights{}, nil)
	return slices.Clone(rows), err
}

// evalCQ is EvalCQ over the calling query's fetch table fl, with an
// optional span. A full push-down is one fragment (newFragReq): it records
// one "pushdown" child with the fragment's src and fetched counts, under
// which the serving peer's remote spans adopt; its rows may be the cache's
// own slice. A cross-peer rewriting is engine.BindJoin over fetchAtom,
// which records one "atom" child of sp per fetched atom, annotated with the
// peer address, the source (fragcache / bind / fetch / shared), the key
// count of a bind and the rows fetched; the serving peer's remote spans
// (and the per-batch bind spans) adopt under it. The body atoms' routes are
// copied under one lock at the start, and the join order and fetchAtom's
// bind-versus-fetch choice both read that copy.
func (e *Executor) evalCQ(q lang.CQ, fl *flights, sp *obs.Span) ([]rel.Tuple, error) {
	routes := make([]route, len(q.Body)) // each body atom's route
	pushdown := len(q.Body) > 0
	e.mu.Lock()
	for i, a := range q.Body {
		r, ok := e.routes[a.Pred]
		if !ok {
			e.mu.Unlock()
			return nil, fmt.Errorf("netpeer: no route for stored relation %s", a.Pred)
		}
		routes[i] = r
		pushdown = pushdown && r.addr == routes[0].addr
	}
	e.mu.Unlock()
	if !pushdown {
		cards := make([]int, len(routes)) // an unknown estimate orders as 0
		for i, r := range routes {
			cards[i] = max(r.card, 0)
		}
		e.bindJoinCompiles.Add(1)
		return engine.BindJoin(q, cards, func(i int, keyPos []int, keys [][]string) ([]rel.Tuple, error) {
			return e.fetchAtom(fl, q.Body[i], routes[i], keyPos, keys, sp)
		})
	}
	// Full push-down: one peer holds every atom, and the whole CQ is one
	// fragment.
	addr := routes[0].addr
	ps := sp.Child("pushdown", obs.Attr{K: "addr", V: addr})
	defer ps.End()
	rows, err := e.fragment(fl, newFragReq(addr, q, nil, nil), ps)
	ps.SetErr(err)
	ps.SetInt("rows", int64(len(rows)))
	return rows, err
}

// fetchAtom is the bind-join's fetch of atom a over its route rt, as the
// rewriting copied it at its start (engine.BindJoin's fetch): with keys
// bound at keyPos, a bind shipping them, unless the relation's reported
// cardinality is smaller than the key set; otherwise, or with no key
// bound, the push-down of a's selection. Either way the fragment's query
// is a's selection (selectionQuery), and a bind adds its keys. A relation
// with no reported cardinality is bound. It takes no lock, and records one
// "atom" child of sp.
func (e *Executor) fetchAtom(fl *flights, a lang.Atom, rt route, keyPos []int, keys [][]string, sp *obs.Span) (rows []rel.Tuple, err error) {
	as := sp.Child("atom", obs.Attr{K: "pred", V: a.Pred}, obs.Attr{K: "addr", V: rt.addr})
	defer func() {
		as.SetErr(err)
		as.End()
	}()
	if keys != nil && (rt.card < 0 || rt.card >= len(keys)) {
		as.SetInt("keys", int64(len(keys)))
	} else {
		keyPos, keys = nil, nil
	}
	return e.fragment(fl, newFragReq(rt.addr, selectionQuery(a), keyPos, keys), as)
}

// selectionQuery builds the push-down of atom a's selection: head and body
// carry the constant itself or, per variable, one variable named after its
// first position, so the peer applies both the constants and the repeated
// variables and returns full rows of the selection. A bind of a ships the
// body's atom, and its fragment key reads the repeats from these names.
func selectionQuery(a lang.Atom) lang.CQ {
	args := make([]lang.Term, len(a.Args))
	for i, t := range a.Args {
		if !t.IsConst() {
			t = lang.Var("c" + strconv.Itoa(slices.Index(a.Args, t)))
		}
		args[i] = t
	}
	return lang.CQ{
		Head: lang.Atom{Pred: "fetch", Args: args},
		Body: []lang.Atom{{Pred: a.Pred, Args: args}},
	}
}
