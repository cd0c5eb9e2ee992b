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
// rewriting spans peers it runs a streaming, adaptive bind-join:
//
//   - Atoms are ordered by the engine planner's selectivity heuristic
//     (cardinalities learned at Discover time and refreshed from the
//     estimates piggybacked on every response).
//   - The partial join is materialized once and extended incrementally per
//     atom: the atom's remote rows are grouped by join key and one
//     sequential pass over the partial extends every match, so no per-step
//     prefix re-evaluation happens.
//   - Per atom the executor ships the distinct join-key values bound so
//     far ("bind" op) in batches, one request after another, unless the
//     peer's advertised cardinality says the whole selection-pushed
//     relation is smaller than the key set: then fetching it outright
//     moves fewer bytes, and the executor adapts.
//   - Every remote fetch is a fragment, of one of two kinds: a push-down —
//     a whole rewriting, or an atom fetched without keys, which is the
//     push-down of its selection (constants and repeated variables, both
//     applied by the peer) — or an atom's bind probe. Fragments are cached
//     *across queries* in a byte-bounded LRU, sorted and distinct, keyed by
//     peer and either the pushed-down CQ's canonical string or (canonical
//     atom pattern, bound-key-set hash). An entry is stamped with its
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
	// addr maps each stored relation to the address of the serving peer.
	// Guarded by mu.
	addr map[string]string
	// card holds per-relation cardinality estimates, seeded by Discover
	// and refreshed from the estimates piggybacked on every response.
	// They feed the join-order heuristic and the adaptive bind-vs-fetch
	// choice (stale values shift the plan, never the answer). Guarded by
	// mu.
	card map[string]int
	// pools holds one connection pool per peer address. Guarded by mu.
	pools map[string]*pool
	// frags caches fetched fragments — push-downs and binds —
	// across queries.
	frags *fragCache
	// counters aggregates wire traffic across all pooled connections.
	counters Counters
}

// NewExecutor creates an executor with an empty routing table.
func NewExecutor() *Executor {
	return &Executor{
		maxConnsPerAddr: defaultMaxConnsPerAddr,
		busyRetries:     defaultBusyRetries,
		busyBackoff:     defaultBusyBackoff,
		addr:            map[string]string{},
		card:            map[string]int{},
		pools:           map[string]*pool{},
		frags:           newFragCache(defaultFragBytes),
	}
}

// Route declares that the peer at addr serves the given stored relation.
func (e *Executor) Route(pred, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.addr[pred] = addr
}

// Discover connects to addr, asks for its catalog, and routes every served
// relation to it, recording cardinalities for join ordering.
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
	for p, n := range cards {
		e.addr[p] = addr
		e.card[p] = n
	}
	return nil
}

// updateMeta folds cardinalities piggybacked on responses into the
// estimate table (only for relations already known, so a response cannot
// invent routes).
func (e *Executor) updateMeta(preds []string, cards []int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, p := range preds {
		if _, ok := e.addr[p]; !ok {
			continue
		}
		if i < len(cards) {
			e.card[p] = cards[i]
		}
	}
}

// cardOf returns the current cardinality estimate for pred and whether one
// is known.
func (e *Executor) cardOf(pred string) (int, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n, ok := e.card[pred]
	return n, ok
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
	e.frags.clear()
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
// call (every request the executor sends is an idempotent read); if that
// dial fails, fn's error is reported. A request the peer shed with a busy
// error never started, so fn runs again after a full-jitter exponential
// backoff, up to busyRetries times; closing the pool (Close) ends the
// backoff, and the busy error surfaces at once. Streaming callers must
// tolerate re-delivery (the join state dedups remote tuples). Broken
// connections never return to the pool (put closes them).
func (e *Executor) withClient(addr string, fn func(*Client) error) error {
	p := e.pool(addr)
	var err error // fn's last error
	fresh, freshUsed := false, false
	for busy := 0; ; {
		c, reused, gerr := p.get(fresh)
		if gerr != nil {
			if fresh {
				return err
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
			case <-p.done:
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
// optional span. A full push-down is one fragment (pushdownReq): it records
// one "pushdown" child with the fragment's src and fetched counts, under
// which the serving peer's remote spans adopt; its rows may be the cache's
// own slice. Cross-peer execution hands the span to the bind-join's
// per-atom instrumentation.
func (e *Executor) evalCQ(q lang.CQ, fl *flights, sp *obs.Span) ([]rel.Tuple, error) {
	addrs := make([]string, len(q.Body)) // serving peer of each body atom
	pushdown := len(q.Body) > 0
	e.mu.Lock()
	for i, a := range q.Body {
		addr, ok := e.addr[a.Pred]
		if !ok {
			e.mu.Unlock()
			return nil, fmt.Errorf("netpeer: no route for stored relation %s", a.Pred)
		}
		addrs[i] = addr
		pushdown = pushdown && addr == addrs[0]
	}
	e.mu.Unlock()
	if !pushdown {
		return e.evalStreamingBindJoin(q, addrs, fl, sp)
	}
	// Full push-down: one peer holds every atom, and the whole CQ is one
	// fragment.
	ps := sp.Child("pushdown", obs.Attr{K: "addr", V: addrs[0]})
	defer ps.End()
	rows, err := e.fragment(fl, pushdownReq(addrs[0], q), ps)
	ps.SetErr(err)
	ps.SetInt("rows", int64(len(rows)))
	return rows, err
}

// stepShape is the per-atom lowering of the streaming join: how one remote
// tuple is checked against the atom's repeated variables, which positions
// join against the partial result, and which bind new variables.
type stepShape struct {
	// dupChecks pair a position with the first occurrence of the same
	// variable inside the atom: the tuple must agree with itself.
	dupChecks [][2]int
	// keyPoss are the first-occurrence positions of already-bound
	// variables (the join key); joinCols are those variables' columns in
	// the partial's rows, in the same order.
	keyPoss  []int
	joinCols []int
	// newPoss are the first-occurrence positions of new variables,
	// parallel to newVars.
	newPoss []int
	newVars []string
}

// shapeOf classifies atom a's positions given varCol, the column of each
// variable bound so far.
func shapeOf(a lang.Atom, varCol map[string]int) stepShape {
	var sh stepShape
next:
	for pos, t := range a.Args {
		if t.IsConst() {
			continue
		}
		// Atoms are narrow: a scan of the earlier positions beats a map.
		for fp := range pos {
			if a.Args[fp] == t {
				sh.dupChecks = append(sh.dupChecks, [2]int{pos, fp})
				continue next
			}
		}
		if col, bound := varCol[t.Name]; bound {
			sh.keyPoss = append(sh.keyPoss, pos)
			sh.joinCols = append(sh.joinCols, col)
		} else {
			sh.newPoss = append(sh.newPoss, pos)
			sh.newVars = append(sh.newVars, t.Name)
		}
	}
	return sh
}

// bindJoin is the state of one cross-peer rewriting's execution: the join of
// the atoms processed so far, as rows over the variables bound so far.
type bindJoin struct {
	e *Executor
	q lang.CQ
	// fl is the fetch table of the query this rewriting belongs to.
	fl *flights
	// varCol maps each bound variable to its column in partial's rows.
	varCol  map[string]int
	partial []rel.Tuple
	// compApplied marks the comparisons already enforced on partial.
	compApplied []bool
}

// evalStreamingBindJoin runs a cross-peer rewriting (addrs names each body
// atom's serving peer) as the bind-join the Executor type describes: atoms
// in planner order, one step each. Comparisons apply at the first step that
// grounds them, so impossible keys are never shipped.
//
// Under a non-nil span each atom gets one "atom" child annotated with the
// peer address, the source (fragcache / bind / fetch / shared), key and
// partial-row counts; the serving peer's remote spans (and the per-batch
// bind spans) adopt under it.
func (e *Executor) evalStreamingBindJoin(q lang.CQ, addrs []string, fl *flights, sp *obs.Span) ([]rel.Tuple, error) {
	if !q.IsSafe() {
		return nil, fmt.Errorf("netpeer: unsafe query %s", q)
	}
	j := &bindJoin{e: e, q: q, fl: fl, varCol: map[string]int{}, compApplied: make([]bool, len(q.Comps))}
	// Variable-free comparisons gate the whole query, exactly once.
	for ci, c := range q.Comps {
		if len(c.Vars(nil)) == 0 {
			j.compApplied[ci] = true
			if !c.Op.EvalConst(c.L, c.R) {
				return nil, nil
			}
		}
	}
	// Seeded with the unit row: identity of the join.
	j.partial = []rel.Tuple{{}}
	for _, bi := range e.planOrder(q) {
		if err := j.step(q.Body[bi], addrs[bi], sp); err != nil {
			return nil, err
		}
		if len(j.partial) == 0 {
			// The partial join is already empty, so the full join is too:
			// skip the remaining fetches entirely.
			return nil, nil
		}
	}
	// Mirror the engine: a comparison whose variables the body never binds
	// is an error — but only observable when a complete match exists.
	for ci, c := range q.Comps {
		if !j.compApplied[ci] {
			return nil, fmt.Errorf("netpeer: comparison %s not bound by body", c)
		}
	}
	return j.project(), nil
}

// step joins one atom into the partial: distinct bound keys, bind or fetch,
// the atom's remote rows (another disjunct's fetch, cache or wire), one pass
// extending the partial.
func (j *bindJoin) step(a lang.Atom, addr string, sp *obs.Span) (err error) {
	as := sp.Child("atom", obs.Attr{K: "pred", V: a.Pred}, obs.Attr{K: "addr", V: addr})
	defer func() {
		as.SetInt("partial", int64(len(j.partial)))
		as.SetErr(err)
		as.End()
	}()
	sh := shapeOf(a, j.varCol)
	// The distinct bound keys are the semi-join payload. Ship them — or,
	// with no key bound or when the relation's advertised cardinality is
	// smaller than the key set, push the atom's selection down instead.
	var r *fragReq
	if len(sh.joinCols) > 0 {
		keyRows := j.distinctKeys(sh.joinCols)
		if card, ok := j.e.cardOf(a.Pred); !ok || card >= len(keyRows) {
			as.SetInt("keys", int64(len(keyRows)))
			r = bindReq(addr, a, sh, keyRows)
		}
	}
	if r == nil {
		r = pushdownReq(addr, selectionQuery(a))
	}
	rows, err := j.e.fragment(j.fl, r, as)
	if err != nil {
		return err
	}
	j.extend(sh, rows)
	return nil
}

// appendKey appends the join-key encoding of t's values at cols to b.
func appendKey(b []byte, t rel.Tuple, cols []int) []byte {
	for _, c := range cols {
		b = rel.AppendValue(b, t[c])
	}
	return b
}

// distinctKeys returns the distinct values of the partial's joinCols, in
// first-seen order.
func (j *bindJoin) distinctKeys(joinCols []int) [][]string {
	var kb []byte
	var keys [][]string
	seen := map[string]bool{}
	for _, row := range j.partial {
		kb = appendKey(kb[:0], row, joinCols)
		if seen[string(kb)] {
			continue
		}
		seen[string(kb)] = true
		key := make([]string, len(joinCols))
		for i, c := range joinCols {
			key[i] = row[c]
		}
		keys = append(keys, key)
	}
	return keys
}

// extend replaces the partial with its join against one atom's remote rows.
// The rows — the semi-join-reduced side — are grouped by join key; one
// sequential pass over the partial then appends every match, widened by the
// atom's new variables, to the next partial. Comparisons the new variables
// ground filter the widened rows on the way in, pruning the partial before
// its keys are shipped to the next peer.
func (j *bindJoin) extend(sh stepShape, rows []rel.Tuple) {
	var kb []byte
	// Chains, not a slice per key: head[k] is the first row with join key k,
	// succ[i] the next row with rows[i]'s key (0 ends a chain: row 0 heads
	// one, so it never follows), last[h] the end of the chain row h heads.
	head := map[string]int{}
	succ, last := make([]int, len(rows)), make([]int, len(rows))
	for i, t := range rows {
		kb = appendKey(kb[:0], t, sh.keyPoss)
		if h, ok := head[string(kb)]; ok {
			succ[last[h]], last[h] = i, i
		} else {
			head[string(kb)], last[i] = i, i
		}
	}
	width := len(j.varCol)
	for i, v := range sh.newVars {
		j.varCol[v] = width + i
	}
	ready := j.newlyGround()
	var next []rel.Tuple
	for _, row := range j.partial {
		kb = appendKey(kb[:0], row, sh.joinCols)
		i, ok := head[string(kb)]
	match:
		for ; ok; i, ok = succ[i], succ[i] != 0 {
			t := rows[i]
			nr := make(rel.Tuple, width+len(sh.newPoss))
			copy(nr, row)
			for k, p := range sh.newPoss {
				nr[width+k] = t[p]
			}
			for _, c := range ready {
				if !evalComp(c, j.varCol, nr) {
					continue match
				}
			}
			next = append(next, nr)
		}
	}
	j.partial = next
}

// newlyGround marks and returns the comparisons not yet applied whose
// variables are all bound now.
func (j *bindJoin) newlyGround() []lang.Comparison {
	var ready []lang.Comparison
next:
	for ci, c := range j.q.Comps {
		if j.compApplied[ci] {
			continue
		}
		for _, v := range c.Vars(nil) {
			if _, bound := j.varCol[v.Name]; !bound {
				continue next
			}
		}
		j.compApplied[ci] = true
		ready = append(ready, c)
	}
	return ready
}

// project maps the completed join onto the query head: distinct, sorted
// in place.
func (j *bindJoin) project() []rel.Tuple {
	head := j.q.Head.Args
	out := make([]rel.Tuple, 0, len(j.partial))
	for _, row := range j.partial {
		h := make(rel.Tuple, len(head))
		for i, t := range head {
			if t.IsConst() {
				h[i] = t.Name
			} else {
				h[i] = row[j.varCol[t.Name]]
			}
		}
		out = append(out, h)
	}
	return rel.SortDistinct(out)
}

// evalComp evaluates comparison c over one partial-join row.
func evalComp(c lang.Comparison, varCol map[string]int, row rel.Tuple) bool {
	resolve := func(t lang.Term) lang.Term {
		if !t.IsConst() {
			t = lang.Const(row[varCol[t.Name]])
		}
		return t
	}
	return c.Op.EvalConst(resolve(c.L), resolve(c.R))
}

// selectionQuery builds the push-down that fetches atom a without keys:
// head and body carry the constant itself or, per variable, one variable
// named after its first position, so the peer applies both the constants
// and the repeated variables and returns full rows of the selection.
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

// planOrder orders q's body atoms with the engine planner's greedy
// selectivity heuristic (engine.OrderBody), feeding it the serving peers'
// cardinalities (advertised at Discover time, refreshed from the piggyback
// on every response).
func (e *Executor) planOrder(q lang.CQ) []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return engine.OrderBody(q.Body, func(pred string) int { return e.card[pred] })
}
