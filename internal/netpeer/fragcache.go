package netpeer

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
// row keeps that whole string alive. The estimate stays honest because a fragment keeps every row of
// its frames: fragFetch.row drops a row only when a misbehaving server
// sends one the atom rejects, or a duplicate across bind batches.
func tupleBytes(t rel.Tuple) int64 {
	n := int64(24) // slice header + growth slack
	for _, v := range t {
		n += int64(len(v)) + 16
	}
	return n
}

// fragEntry is one cached fragment: the post-filter, deduplicated remote
// tuples of one (peer, atom pattern, bound-key set) fetch, stamped with the
// serving peer's generation for the fragment's relation at fetch time.
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

	// hits counts atom fetches the serving peer answered unchanged, served
	// from the cache; misses counts atom fetches whose rows crossed the
	// wire. invalidations counts cached fragments dropped because the
	// peer's generation for the fragment's relation had moved on, and
	// evictions the entries dropped by the byte budget. shared counts atom
	// fetches served by another fetch of the same query (see fragment);
	// they reach neither the cache nor the wire.
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

// flights is one query's table of atom fetches, keyed by fragmentKey. The
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

// fragment returns the distinct tuples of atom a's relation that pass the
// atom's constants and repeated variables and — when useBind — match one of
// keyRows at the join positions. Within one query each distinct fetch
// (same peer, atom pattern and bound-key set) goes out once: the first
// caller runs fetchFragment, and every later caller with the same key waits
// for that flight and reuses its rows or error, counted in shared and
// labelled src=shared on its span. Sharing is sound because a union's
// disjuncts already read their peers at different moments: a fetch made
// during the query stays inside the query's monotone envelope whichever
// disjunct consumes it. The rows are shared with the table and the cache —
// callers must not mutate them.
func (e *Executor) fragment(fl *flights, addr string, a lang.Atom, sh stepShape, keyRows [][]string, useBind bool, as *obs.Span) ([]rel.Tuple, error) {
	key := fragmentKey(addr, a, sh.keyPoss, keyRows, useBind)
	f, first := fl.join(key)
	if first {
		f.rows, f.err = e.fetchFragment(key, addr, a, sh, keyRows, useBind, as)
		close(f.done)
		return f.rows, f.err
	}
	<-f.done
	e.frags.shared.Inc()
	as.Set("src", "shared")
	as.SetInt("fetched", int64(len(f.rows)))
	return f.rows, f.err
}

// fetchFragment is one atom fetch under cache key key, over one borrowed
// connection. When the fragment is cached the fetch carries the entry's
// generation, and a peer that answers unchanged ships no rows: the cached
// ones are served. Otherwise the rows stream in and are cached for the next
// query.
func (e *Executor) fetchFragment(key, addr string, a lang.Atom, sh stepShape, keyRows [][]string, useBind bool, as *obs.Span) ([]rel.Tuple, error) {
	cached, gen, ok := e.frags.lookup(key)
	f := fragFetch{a: a, sh: sh, seen: map[string]bool{}}
	if useBind {
		as.Set("src", "bind")
	} else {
		as.Set("src", "fetch")
	}
	err := e.withClient(addr, func(c *Client) error {
		c.tapMeta, c.traceSpan = f.tap, as
		if ok {
			c.ifGen = &gen
		}
		defer func() { c.tapMeta, c.traceSpan, c.ifGen = nil, nil, nil }()
		if useBind {
			return c.BindEvalStream(a, sh.keyPoss, keyRows, f.row)
		}
		return c.EvalStream(selectionQuery(a), f.row)
	})
	as.SetInt("fetched", int64(len(f.rows)))
	if err != nil {
		return nil, err
	}
	if ok && f.unchanged {
		e.frags.hit(key)
		as.Set("src", "fragcache")
		as.SetInt("fetched", int64(len(cached)))
		return cached, nil
	}
	e.frags.missed(key, ok)
	if f.genSeen && !f.genMoved {
		e.frags.put(key, f.gen, f.rows)
	}
	return f.rows, nil
}

// fragFetch is the receiving end of one atom's wire fetch: it keeps the
// arriving tuples that pass the atom's own checks, once each, and notes
// the generation the fetch's response frames report for the relation.
type fragFetch struct {
	a  lang.Atom
	sh stepShape
	// seen dedups across bind batches and makes the retries withClient may
	// perform idempotent.
	seen map[string]bool
	rows []rel.Tuple
	// gen is the generation stamp for the cached fragment. Distinct values
	// across frames (genMoved) mean a mutation landed between bind batches:
	// the fragment is not a point snapshot and must not be cached.
	gen               uint64
	genSeen, genMoved bool
	// unchanged reports that the peer confirmed the cached copy's
	// generation instead of sending rows.
	unchanged bool
}

// row filters and dedups one arriving remote tuple.
func (f *fragFetch) row(t rel.Tuple) error {
	if len(t) != f.a.Arity() {
		return fmt.Errorf("netpeer: %s/%d: remote row has %d values", f.a.Pred, f.a.Arity(), len(t))
	}
	// The server already applied the pushed constants; re-checking keeps
	// correctness independent of the transport.
	for p, arg := range f.a.Args {
		if arg.IsConst() && t[p] != arg.Name {
			return nil
		}
	}
	for _, d := range f.sh.dupChecks {
		if t[d[0]] != t[d[1]] {
			return nil
		}
	}
	k := t.Key()
	if f.seen[k] {
		return nil
	}
	f.seen[k] = true
	f.rows = append(f.rows, t)
	return nil
}

// tap observes the final frames of this fetch: the generations they
// piggyback and whether the peer answered unchanged.
func (f *fragFetch) tap(final *wire.Response) {
	f.unchanged = final.Unchanged
	for i, p := range final.Preds {
		if p == f.a.Pred && i < len(final.Gens) {
			f.genMoved = f.genMoved || (f.genSeen && final.Gens[i] != f.gen)
			f.gen, f.genSeen = final.Gens[i], true
		}
	}
}

// fragmentKey builds the cache key of one atom fetch: the serving peer's
// address, the atom's *canonical pattern* — per position a constant
// (length-prefix encoded), a back-reference to the first occurrence of a
// repeated variable, or a fresh-variable marker — and, on the bind path,
// the bound column positions plus a hash of the *sorted* distinct
// bound-key set (the key rows arrive in join-discovery order, which varies
// run to run, so the hash must not depend on it). The pattern must cover
// repeated variables, not just constants: cached rows are post-filter, and
// R(x, x) keeps only the tuples agreeing with themselves while R(x, y)
// keeps all of them — a constants-only key would alias the two. A full
// selection fetch uses the bare pattern; bind fetches with different key
// sets get distinct entries.
func fragmentKey(addr string, a lang.Atom, bindCols []int, keyRows [][]string, bind bool) string {
	b := rel.AppendValue([]byte(nil), addr)
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
	if !bind {
		return string(append(b, "|full"...))
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
