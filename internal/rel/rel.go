package rel

import (
	"cmp"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Tuple is a row of constant values.
type Tuple []string

// AppendKeyPart appends one key component with a length prefix, so
// composite keys are collision-free even for values containing any
// delimiter byte ("a\x00b","c" vs "a","b\x00c"). It is the one composite-key
// encoding: Tuple.Key, the engine's index keys and netpeer's fragment and
// join keys all build on it.
func AppendKeyPart(dst []byte, v string) []byte {
	dst = strconv.AppendInt(dst, int64(len(v)), 10)
	dst = append(dst, ':')
	return append(dst, v...)
}

// appendKey appends Key's encoding of t to dst.
func (t Tuple) appendKey(dst []byte) []byte {
	for _, v := range t {
		dst = AppendKeyPart(dst, v)
	}
	return dst
}

// Key returns a map key for the tuple: its values, each length-prefixed
// (AppendKeyPart), so distinct tuples always get distinct keys.
func (t Tuple) Key() string {
	// Encoding into a stack buffer leaves the string as the one allocation
	// for keys up to its size.
	var buf [128]byte
	return string(t.appendKey(buf[:0]))
}

// Compare orders tuples column by column with strings.Compare, a tuple
// that is a prefix of another sorting first. It is the one canonical tuple
// order: Relation.Tuples, DistinctSorted and every evaluator's sorted
// answers use it.
func Compare(t, u Tuple) int {
	for i := range min(len(t), len(u)) {
		if c := strings.Compare(t[i], u[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(t), len(u))
}

// String renders the tuple as (v1, ..., vn).
func (t Tuple) String() string { return "(" + strings.Join(t, ", ") + ")" }

// Equal reports element-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// arenaChunkBytes caps the size of one arena chunk.
const arenaChunkBytes = 64 << 10

// arena hands out pieces of append-only chunks that are never written
// again once handed out. Chunks start at the size of the first request and
// double up to arenaChunkBytes, so a small relation stays small; a request
// larger than that gets a chunk of its own size.
type arena[T any] struct {
	free []T // the current chunk's unused tail
	size int // the current chunk's length
}

// take returns n fresh elements, their capacity clipped to n so an append
// to them cannot reach a neighbour.
func (a *arena[T]) take(n int) []T {
	if len(a.free) < n {
		var zero T
		a.size = max(n, min(2*a.size, arenaChunkBytes/int(unsafe.Sizeof(zero))))
		a.free = make([]T, a.size)
	}
	p := a.free[:n:n]
	a.free = a.free[n:]
	return p
}

// storeLocked copies t, whose Key encoding is key, into the relation's
// arenas and returns the stored key and row: the key bytes are the one
// copy, and the row's values are substrings of them. Callers hold r.mu.
func (r *Relation) storeLocked(key []byte, t Tuple) (string, Tuple) {
	b := r.keys.take(len(key))
	copy(b, key)
	k := unsafe.String(unsafe.SliceData(b), len(b))
	if len(t) == 0 {
		return k, Tuple{}
	}
	row := Tuple(r.vals.take(len(t)))
	off := 0
	for i, v := range t {
		off += keyPrefixLen(len(v))
		row[i] = k[off : off+len(v)]
		off += len(v)
	}
	return k, row
}

// keyPrefixLen is the length of AppendKeyPart's prefix for a value of n
// bytes: n's decimal digits and the colon.
func keyPrefixLen(n int) int {
	d := 2
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// Relation is a named set of tuples of fixed arity: one tuple set, one
// append-only insert log, one pair of row arenas and one generation
// counter, all behind one mutex. Insert, Contains, Len, Tuples, Version and
// AddedSince are individually safe for concurrent use; a reader that needs
// one atomic point-in-time view across inserts still requires external
// synchronization, which is what pdms.Network's and netpeer.Server's locks
// provide.
type Relation struct {
	name  string
	arity int

	mu sync.Mutex
	// tuples is the relation's tuple set, guarded by mu.
	tuples map[string]Tuple
	// log is the append-only insert log, guarded by mu.
	log []Tuple
	// gen counts inserts (== len(log)). Atomic so generation reads (cache
	// keys, piggybacks) never take the lock.
	gen atomic.Uint64
	// keys and vals are the row arenas, guarded by mu: each stored row's
	// Key encoding is copied into keys once, and its values are substrings
	// of that copy held in a header carved from vals.
	keys arena[byte]
	vals arena[string]

	// hook, when non-nil, observes every successful insert (see
	// SetAppendHook). It must be installed before the relation is shared
	// across goroutines; Insert reads it without synchronization.
	hook AppendHook

	// sortedMu guards the cached deterministic (sorted) tuple order; the
	// cache is tagged with the Version it was built at and rebuilt when the
	// relation has grown past it.
	sortedMu sync.Mutex
	// sorted is the cached sorted order, guarded by sortedMu.
	sorted []Tuple
	// sortedVer is the Version sorted was built at, guarded by sortedMu.
	sortedVer uint64
}

// AppendHook observes one successful insert. It is invoked under the
// relation's lock, after the tuple has been appended to the log and the
// generation bumped, with the stored (arena-backed) tuple and the new
// generation — in exactly the log's order. A non-nil error aborts Insert
// with that error; the tuple remains inserted in memory, so hook errors
// mean "applied but possibly not durable" and callers (the storage tier)
// must treat the backing journal as failed.
type AppendHook func(t Tuple, gen uint64) error

// Name returns the relation's predicate name (fixed at creation).
func (r *Relation) Name() string { return r.name }

// Arity returns the relation's column count (fixed at creation).
func (r *Relation) Arity() int { return r.arity }

// SetAppendHook installs h as the relation's insert observer (nil removes
// it). It must be called before the relation is shared across goroutines:
// Insert reads the hook without synchronization.
func (r *Relation) SetAppendHook(h AppendHook) { r.hook = h }

// NewRelation creates an empty relation.
func NewRelation(name string, arity int) *Relation {
	return &Relation{name: name, arity: arity, tuples: map[string]Tuple{}}
}

// Insert adds a tuple (set semantics). It reports whether the tuple was new
// and returns an error on arity mismatch. A new tuple is copied into the
// relation's arenas, so the caller keeps ownership of t and its values.
// The insert bumps the generation counter.
func (r *Relation) Insert(t Tuple) (bool, error) {
	if len(t) != r.arity {
		return false, fmt.Errorf("rel: %s arity %d, tuple %v has %d values", r.name, r.arity, t, len(t))
	}
	var buf [128]byte
	k := t.appendKey(buf[:0])
	r.mu.Lock()
	if _, ok := r.tuples[string(k)]; ok {
		r.mu.Unlock()
		return false, nil
	}
	key, cp := r.storeLocked(k, t)
	r.tuples[key] = cp
	r.log = append(r.log, cp)
	r.gen.Add(1)
	if h := r.hook; h != nil {
		// Still under the lock: the hook sees inserts in exactly the log's
		// order, which is what lets the durable tier mirror the log frame
		// for frame.
		if err := h(cp, r.gen.Load()); err != nil {
			r.mu.Unlock()
			return true, err
		}
	}
	r.mu.Unlock()
	return true, nil
}

// Version returns the number of inserts so far: monotonic, bumped once per
// new tuple, never by duplicates. Cache keys and the netpeer gens
// piggyback are built from this value; together with AddedSince it lets
// derived structures (engine indexes) catch up incrementally.
func (r *Relation) Version() uint64 { return r.gen.Load() }

// AddedSince returns the tuples inserted after version v, in insertion
// order. Callers must not mutate the result. Tuples are never deleted, so
// the log suffix log[v:] is exactly what changed since version v, and
// AddedSince(0) enumerates the whole relation without paying a sort.
func (r *Relation) AddedSince(v uint64) []Tuple {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v > uint64(len(r.log)) {
		return nil
	}
	return r.log[v:]
}

// Contains reports tuple membership.
func (r *Relation) Contains(t Tuple) bool {
	var buf [128]byte
	k := t.appendKey(buf[:0])
	r.mu.Lock()
	_, ok := r.tuples[string(k)]
	r.mu.Unlock()
	return ok
}

// Len returns the cardinality.
func (r *Relation) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tuples)
}

// Tuples returns the tuples in column-wise (Compare) order. The result is
// cached per Version and shared: callers must not mutate it.
func (r *Relation) Tuples() []Tuple {
	r.sortedMu.Lock()
	defer r.sortedMu.Unlock()
	// Read the version before snapshotting: a cache built here can only
	// ever hold tuples beyond v, never miss one at v, so a stale entry is
	// impossible (any extra tuple implies a later Version() > v, which
	// forces a rebuild).
	v := r.Version()
	if r.sorted != nil && r.sortedVer == v {
		return r.sorted
	}
	out := append(make([]Tuple, 0, v), r.AddedSince(0)...)
	SortTuples(out)
	r.sorted, r.sortedVer = out, v
	return out
}

// Instance maps predicate names to relations. The zero value is unusable;
// use NewInstance.
//
// The relation map self-synchronizes: lookups take the read side of an
// internal RWMutex and lazy creation (Add on a new predicate) the write
// side, so concurrent Adds, catalog walks and generation reads are safe
// without external locking. The lock covers map *membership* only —
// relation contents self-synchronize under each relation's own lock — so
// no caller ever holds it across tuple work.
type Instance struct {
	// mu guards the relation map and the hook factory. Creation is the
	// only write: two concurrent Adds to a fresh predicate must not both
	// install a relation (one would overwrite — and so lose — the other's
	// tuples), and a map insert must not race a concurrent reader.
	mu   sync.RWMutex
	rels map[string]*Relation // guarded by mu
	// hooks, when non-nil, supplies the append hook for every relation the
	// instance holds or later creates (see SetAppendHook). Guarded by mu:
	// creation paths read it under the write lock they already hold.
	hooks HookFactory
}

// HookFactory returns the append hook for one relation of an instance,
// given its predicate name and arity — or nil for none. The storage tier
// uses this to journal every relation an instance creates, including those
// materialized lazily by Add.
type HookFactory func(pred string, arity int) AppendHook

// NewInstance returns an empty instance.
func NewInstance() *Instance {
	return &Instance{rels: map[string]*Relation{}}
}

// SetAppendHook installs f as the instance's append-hook factory (nil
// removes it): f is consulted for every relation the instance currently
// holds and every relation Add creates later. Like Relation.SetAppendHook
// it must be called before the instance is shared across goroutines (the
// per-relation hook fields are read without synchronization by Insert).
// Clones never inherit hooks — they are independent in-memory copies, not
// views of the journaled instance.
func (ins *Instance) SetAppendHook(f HookFactory) {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	ins.hooks = f
	for name, r := range ins.rels {
		if f == nil {
			r.SetAppendHook(nil)
			continue
		}
		r.SetAppendHook(f(name, r.arity))
	}
}

// Clone returns a deep copy of the instance, preserving every relation's
// log order and generation counter (so generation-keyed caches carry
// over). The copy carries no append hooks.
func (ins *Instance) Clone() *Instance {
	ins.mu.RLock()
	defer ins.mu.RUnlock()
	rels := make(map[string]*Relation, len(ins.rels))
	for name, r := range ins.rels {
		// Build the copy fully formed before publishing it: the fresh
		// relation is unshared, so only the source's lock is needed.
		r.mu.Lock()
		tuples := make(map[string]Tuple, len(r.tuples))
		for k, t := range r.tuples {
			tuples[k] = t
		}
		// The copy shares the source's stored rows, which are never written
		// again, but gets arenas of its own.
		nr := &Relation{
			name: name, arity: r.arity, tuples: tuples,
			// Full-slice expression: later appends to either log must not
			// share backing storage.
			log: r.log[:len(r.log):len(r.log)],
		}
		nr.gen.Store(r.gen.Load())
		r.mu.Unlock()
		rels[name] = nr
	}
	return &Instance{rels: rels}
}

// Relation returns the named relation, or nil if absent.
func (ins *Instance) Relation(pred string) *Relation {
	ins.mu.RLock()
	defer ins.mu.RUnlock()
	return ins.rels[pred]
}

// Relations returns the predicate names present, sorted.
func (ins *Instance) Relations() []string {
	ins.mu.RLock()
	out := make([]string, 0, len(ins.rels))
	for name := range ins.rels {
		out = append(out, name)
	}
	ins.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Gen returns the per-relation generation of pred: the number of inserts
// it has absorbed (Relation.Version),
// or 0 when the relation is absent. A relation that exists but holds no
// tuples is indistinguishable from an absent one, which is sound for
// generation keying: both denote the same (empty) contents. Callers key
// caches by vectors of these counters so a mutation of one relation
// invalidates only entries that touch it.
func (ins *Instance) Gen(pred string) uint64 {
	if r := ins.Relation(pred); r != nil {
		return r.Version()
	}
	return 0
}

// EnsureRelation returns the named relation, creating it empty with the
// given arity if absent. Recovery uses it to rebuild relations with their
// recorded arity. Creation is serialized under the instance lock, so
// concurrent ensurers agree on one relation.
func (ins *Instance) EnsureRelation(pred string, arity int) *Relation {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	return ins.ensureLocked(pred, arity)
}

// ensureLocked returns the named relation, creating it (with its hook, if
// a factory is installed) when absent. Callers hold ins.mu exclusively.
func (ins *Instance) ensureLocked(pred string, arity int) *Relation {
	if r, ok := ins.rels[pred]; ok {
		return r
	}
	r := NewRelation(pred, arity)
	if ins.hooks != nil {
		r.SetAppendHook(ins.hooks(pred, r.arity))
	}
	ins.rels[pred] = r
	return r
}

// Add inserts a tuple into pred, creating the relation on first use. It
// reports whether the tuple was new. Lookups take the instance lock's read
// side and first-use creation its write side (double-checked, so racing
// creators converge on one relation); the tuple insert itself runs outside
// the instance lock — relations self-synchronize — so concurrent Adds
// never serialize here.
func (ins *Instance) Add(pred string, t Tuple) (bool, error) {
	ins.mu.RLock()
	r, ok := ins.rels[pred]
	ins.mu.RUnlock()
	if !ok {
		ins.mu.Lock()
		r = ins.ensureLocked(pred, len(t))
		ins.mu.Unlock()
	}
	return r.Insert(t)
}

// MustAdd is Add that panics on arity errors; for tests and loaders of
// already-validated data.
func (ins *Instance) MustAdd(pred string, vals ...string) {
	if _, err := ins.Add(pred, Tuple(vals)); err != nil {
		panic(err)
	}
}

// Size returns the total number of tuples across relations.
func (ins *Instance) Size() int {
	ins.mu.RLock()
	defer ins.mu.RUnlock()
	n := 0
	for _, r := range ins.rels {
		n += r.Len()
	}
	return n
}

// String renders the instance deterministically (for golden tests).
func (ins *Instance) String() string {
	var sb strings.Builder
	for _, name := range ins.Relations() {
		r := ins.Relation(name)
		for _, t := range r.Tuples() {
			sb.WriteString(name)
			sb.WriteString(t.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
