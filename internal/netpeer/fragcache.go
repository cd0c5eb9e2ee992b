package netpeer

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/wire"
)

// The executor's cross-query fragment cache is bounded by bytes alone,
// accounted as tupleBytes per row plus the key's length. A fragment over
// maxFragEntryBytes is not cached at all: one huge fragment must not evict
// the whole working set for a single future hit.
const (
	defaultFragBytes  = 64 << 20
	maxFragEntryBytes = defaultFragBytes / 8
)

// tupleBytes estimates the memory one cached row holds: the string payload
// plus a fixed per-value overhead approximating Go's slice and string
// headers. It deliberately overestimates slightly, so the byte budget
// evicts early rather than late. A row from the wire shares its values
// with the rest of its response frame (wire.ReadResponse decodes a frame's
// row block into substrings of one string holding the block), so a cached
// row keeps that whole string alive. The estimate stays honest because a
// fragment keeps every row of its frames: a row is dropped only when a
// misbehaving server sends one the request's pattern rejects (fragFetch.frame),
// or as a duplicate across bind batches.
func tupleBytes(t rel.Tuple) int64 {
	n := int64(24) // slice header + growth slack
	for _, v := range t {
		n += int64(len(v)) + 16
	}
	return n
}

// fragEntry is one cached fragment: the post-filter remote rows of one
// fetch (fragReq) — a one-relation push-down or an atom's bind — sorted
// and distinct, stamped with the serving peer's
// generation for the fragment's relation at fetch time.
type fragEntry struct {
	key   string
	gen   uint64
	bytes int64
	rows  []rel.Tuple
}

// fragCache is a byte-bounded LRU of fragEntries, safe for concurrent use.
// Staleness is the serving peer's call — the executor sends an entry's
// generation with the fetch that would refresh it — so the cache only
// stores generations and records the outcome.
type fragCache struct {
	mu       sync.Mutex
	maxBytes int64
	ll       *list.List
	items    map[string]*list.Element
	// entries and bytes describe the current contents; they are written
	// under mu, and bytes is the budget's running total.
	entries, bytes obs.Gauge

	// hits counts fetches (push-downs and binds) the serving peer
	// answered unchanged, served from the cache; misses counts fetches
	// whose rows crossed the wire. invalidations counts cached fragments
	// dropped because the peer's generation for the fragment's relation had
	// moved on, and evictions the entries dropped by the byte budget.
	// shared counts fetches served by another fetch of the same query (see
	// fragment); they reach neither the cache nor the wire.
	hits, misses, invalidations, evictions, shared obs.Counter
}

func newFragCache(maxBytes int64) *fragCache {
	return &fragCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    map[string]*list.Element{},
	}
}

// lookup returns the entry under key without deciding whether it is fresh:
// the caller sends gen with its fetch and then reports the outcome via hit
// or missed. The returned rows are shared — callers must not mutate them.
func (fc *fragCache) lookup(key string) (rows []rel.Tuple, gen uint64, ok bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	el, ok := fc.items[key]
	if !ok {
		return nil, 0, false
	}
	ent := el.Value.(*fragEntry)
	return ent.rows, ent.gen, true
}

// hit records a fetch the serving peer answered unchanged and promotes the
// entry to most-recently-used.
func (fc *fragCache) hit(key string) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if el, ok := fc.items[key]; ok {
		fc.ll.MoveToFront(el)
	}
	fc.hits.Inc()
}

// missed records a fetch whose rows crossed the wire. A stale entry — one
// the fetch carried the generation of, which the peer did not confirm — is
// dropped and counted as an invalidation.
func (fc *fragCache) missed(key string, stale bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.misses.Inc()
	if el, ok := fc.items[key]; stale && ok {
		fc.removeLocked(el)
		fc.invalidations.Inc()
	}
}

// put stores a fragment, evicting least-recently-used entries while over
// the byte budget. Oversized fragments are dropped silently: caching them
// would wipe the rest of the working set.
func (fc *fragCache) put(key string, gen uint64, rows []rel.Tuple) {
	bytes := int64(len(key))
	for _, t := range rows {
		bytes += tupleBytes(t)
	}
	if bytes > maxFragEntryBytes {
		return
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if el, ok := fc.items[key]; ok {
		// Replace in place (a refetch after invalidation reuses the key).
		ent := el.Value.(*fragEntry)
		fc.bytes.Add(bytes - ent.bytes)
		ent.gen, ent.rows, ent.bytes = gen, rows, bytes
		fc.ll.MoveToFront(el)
	} else {
		fc.items[key] = fc.ll.PushFront(&fragEntry{key: key, gen: gen, rows: rows, bytes: bytes})
		fc.bytes.Add(bytes)
		fc.entries.Set(int64(fc.ll.Len()))
	}
	fc.evictOverLocked()
}

func (fc *fragCache) evictOverLocked() {
	for fc.bytes.Load() > fc.maxBytes {
		oldest := fc.ll.Back()
		if oldest == nil {
			return
		}
		fc.removeLocked(oldest)
		fc.evictions.Inc()
	}
}

// clear drops every entry. Counters survive.
func (fc *fragCache) clear() {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	for el := fc.ll.Back(); el != nil; el = fc.ll.Back() {
		fc.removeLocked(el)
	}
}

func (fc *fragCache) removeLocked(el *list.Element) {
	ent := el.Value.(*fragEntry)
	fc.ll.Remove(el)
	delete(fc.items, ent.key)
	fc.bytes.Add(-ent.bytes)
	fc.entries.Set(int64(fc.ll.Len()))
}

// flights is one query's table of fetches, keyed by fragReq.key. The
// first disjunct to need a key fetches it; every other disjunct of the
// query that needs the same key waits for that flight and reuses its rows
// or its error. Safe for concurrent use.
type flights struct {
	mu sync.Mutex
	// m holds every flight the query has started. Guarded by mu.
	m map[string]*flight
}

// flight is one fetch in a query's table: done closes once rows and err
// are set.
type flight struct {
	done chan struct{}
	rows []rel.Tuple
	err  error
}

// join returns key's flight, creating it when the query has none yet;
// first reports that the caller created it, so it must fetch, set rows and
// err, and close done.
func (fl *flights) join(key string) (f *flight, first bool) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if started, ok := fl.m[key]; ok {
		return started, false
	}
	if fl.m == nil {
		fl.m = map[string]*flight{}
	}
	f = &flight{done: make(chan struct{})}
	fl.m[key] = f
	return f, true
}

// fragReq is one fragment fetch: what goes to the serving peer and what
// every arriving row is checked against. A fragment is either a CQ pushed
// down to the one peer holding its relations (pushdownReq) — a whole
// rewriting, or an atom fetched without keys (selectionQuery) — or an
// atom's bind (bindReq): both go through the query's flight table, the
// cache and its generation check alike.
type fragReq struct {
	// addr is the serving peer; key names the fetch in the flight table and
	// the cache (pushdownKey, bindKey).
	addr, key string
	// pattern is what an arriving row must match — its arity, its constants
	// and its repeated variables: the pushed-down CQ's head, or the bound
	// atom.
	pattern lang.Atom
	// pred is the one relation the fetch reads, whose generation the peer
	// reports with the rows and confirms when they are unchanged; "" for a
	// push-down over several relations, which shares its flight but is never
	// cached (the peer answers unchanged only for one relation).
	pred string
	// src labels a wire fetch on its span: "fetch" or "bind".
	src string
	// q is a push-down's query. keyPoss and keys are a bind's join
	// positions in pattern and its bound-key rows; keys is nil for a
	// push-down.
	q       lang.CQ
	keyPoss []int
	keys    [][]string
}

// bindReq is the fetch of the rows of atom a's relation that pass the
// atom's constants and repeated variables and match one of keyRows at the
// join positions keyPoss.
func bindReq(addr string, a lang.Atom, keyPoss []int, keyRows [][]string) *fragReq {
	return &fragReq{
		addr: addr, key: bindKey(addr, a, keyPoss, keyRows),
		pattern: a, pred: a.Pred, src: "bind",
		keyPoss: keyPoss, keys: keyRows,
	}
}

// pushdownReq is the fetch of q's answers from addr, the peer serving every
// relation of q's body. It is cacheable when the body reads one distinct
// relation: that is when the peer reports the generation the rows stand
// for and answers a repeat unchanged.
func pushdownReq(addr string, q lang.CQ) *fragReq {
	pred := q.Body[0].Pred
	for _, a := range q.Body[1:] {
		if a.Pred != pred {
			pred = ""
			break
		}
	}
	return &fragReq{
		addr: addr, key: pushdownKey(addr, q),
		pattern: q.Head, pred: pred, src: "fetch", q: q,
	}
}

// fragment returns the distinct rows of fetch r, sorted. Within one query
// each distinct fetch (same key) goes out once: the first caller runs
// fetchFragment, and every later caller with the same key waits for that
// flight and reuses its rows or error, counted in shared and labelled
// src=shared on its span. Sharing is sound because a union's disjuncts
// already read their peers at different moments: a fetch made during the
// query stays inside the query's monotone envelope whichever disjunct
// consumes it. The rows are shared with the table and the cache — callers
// must not mutate them.
func (e *Executor) fragment(fl *flights, r *fragReq, sp *obs.Span) ([]rel.Tuple, error) {
	f, first := fl.join(r.key)
	if first {
		f.rows, f.err = e.fetchFragment(r, sp)
		close(f.done)
		return f.rows, f.err
	}
	<-f.done
	e.frags.shared.Inc()
	sp.Set("src", "shared")
	sp.SetInt("fetched", int64(len(f.rows)))
	return f.rows, f.err
}

// fetchFragment is one fetch over one borrowed connection. When the
// fragment is cached the fetch carries the entry's generation, and a peer
// that answers unchanged ships no rows: the cached ones are served.
// Otherwise the rows stream in, are sorted and deduplicated, and are cached
// for the next query when every response frame reported one generation for
// r.pred. Every final frame's cardinalities refresh the estimate table.
func (e *Executor) fetchFragment(r *fragReq, sp *obs.Span) ([]rel.Tuple, error) {
	cached, gen, ok := e.frags.lookup(r.key)
	sp.Set("src", r.src)
	var ifGen *uint64
	if ok {
		ifGen = &gen
	}
	f := fragFetch{r: r}
	onFinal := func(final *wire.Response) {
		e.updateMeta(final.Preds, final.Cards)
		f.tap(final)
	}
	err := e.withClient(r.addr, func(c *Client) error {
		c.TraceOn(sp)
		defer c.TraceOn(nil)
		if r.keys != nil {
			return c.bindFrames(r.pattern, r.keyPoss, r.keys, ifGen, f.frame, onFinal)
		}
		return c.evalFrames(r.q, ifGen, f.frame, onFinal)
	})
	sp.SetInt("fetched", int64(f.n))
	if err != nil {
		return nil, err
	}
	if ok && f.unchanged {
		e.frags.hit(r.key)
		sp.Set("src", "fragcache")
		sp.SetInt("fetched", int64(len(cached)))
		return cached, nil
	}
	e.frags.missed(r.key, ok)
	rows := rel.SortDistinct(f.tuples())
	if f.genSeen && !f.genMoved {
		e.frags.put(r.key, f.gen, rows)
	}
	return rows, nil
}

// fragFetch is the receiving end of one fetch: it keeps the arriving rows
// that match the request's pattern, and notes the generation the fetch's
// response frames report for its relation.
type fragFetch struct {
	r *fragReq
	// The kept rows may hold duplicates — across bind batches, or from a
	// retry withClient performed — until fetchFragment sorts them distinct.
	rowFrames
	// gen is the generation stamp for the cached fragment. Distinct values
	// across frames (genMoved) mean a mutation landed between bind batches:
	// the fragment is not a point snapshot and must not be cached.
	gen               uint64
	genSeen, genMoved bool
	// unchanged reports that the peer confirmed the cached copy's
	// generation instead of sending rows.
	unchanged bool
}

// frame keeps the rows of one arriving frame that match the request's
// pattern, filtering the decoder's slice in place.
func (f *fragFetch) frame(rows [][]string) error {
	p := &f.r.pattern
	kept := rows[:0]
next:
	for _, t := range rows {
		if len(t) != p.Arity() {
			return fmt.Errorf("netpeer: %s/%d: remote row has %d values", p.Pred, p.Arity(), len(t))
		}
		// The server already applied the pushed constants and repeated
		// variables; re-checking keeps correctness independent of the
		// transport. Patterns are narrow: a repeat is found by a scan.
		for i, arg := range p.Args {
			if arg.IsConst() {
				if t[i] != arg.Name {
					continue next
				}
			} else if fp := slices.Index(p.Args[:i], arg); fp >= 0 && t[i] != t[fp] {
				continue next
			}
		}
		kept = append(kept, t)
	}
	f.add(kept)
	return nil
}

// tap observes the final frames of this fetch: the generations they
// piggyback for the fetch's one relation and whether the peer answered
// unchanged.
func (f *fragFetch) tap(final *wire.Response) {
	f.unchanged = final.Unchanged
	if f.r.pred == "" {
		return
	}
	for i, p := range final.Preds {
		if p == f.r.pred && i < len(final.Gens) {
			f.genMoved = f.genMoved || (f.genSeen && final.Gens[i] != f.gen)
			f.gen, f.genSeen = final.Gens[i], true
		}
	}
}

// bindKey builds the cache key of one atom's bind: the serving peer's
// address, the atom's *canonical pattern* — per position a constant
// (length-prefix encoded), a back-reference to the first occurrence of a
// repeated variable, or a fresh-variable marker — the bound column
// positions, and a hash of the *sorted* distinct bound-key set (the key
// rows arrive in join-discovery order, which varies run to run, so the
// hash must not depend on it). The pattern must cover repeated variables,
// not just constants: cached rows are post-filter, and R(x, x) keeps only
// the tuples agreeing with themselves while R(x, y) keeps all of them — a
// constants-only key would alias the two. Binds with different key sets
// get distinct entries.
func bindKey(addr string, a lang.Atom, bindCols []int, keyRows [][]string) string {
	b := rel.AppendValue([]byte{'a'}, addr)
	b = append(b, '|')
	b = rel.AppendValue(b, a.Pred)
	firstPos := map[string]int{}
	for i, t := range a.Args {
		b = append(b, '|')
		if t.IsConst() {
			b = append(b, '=')
			b = rel.AppendValue(b, t.Name)
			continue
		}
		if fp, ok := firstPos[t.Name]; ok {
			b = append(b, '@')
			b = strconv.AppendInt(b, int64(fp), 10)
			continue
		}
		firstPos[t.Name] = i
		b = append(b, '?')
	}
	b = append(b, "|bind"...)
	for _, c := range bindCols {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(c), 10)
	}
	enc := make([]string, len(keyRows))
	for i, row := range keyRows {
		enc[i] = rel.Tuple(row).Key()
	}
	sort.Strings(enc)
	h := sha256.New()
	for _, k := range enc {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	b = append(b, '|')
	b = append(b, hex.EncodeToString(h.Sum(nil))...)
	return string(b)
}

// pushdownKey is the flight and cache key of pushing q down to the peer at
// addr: the address and q's canonical string. That string is exact — it
// spells out head, body and comparisons and length-prefixes constants — so
// two push-downs share a key only when they are the same query up to
// variable names. The leading 'q' keeps it apart from every bindKey, which
// begins with 'a'.
func pushdownKey(addr string, q lang.CQ) string {
	var arr [256]byte
	b := append(rel.AppendValue(append(arr[:0], 'q'), addr), '|')
	return string(q.AppendCanonical(b, false))
}
