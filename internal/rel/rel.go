package rel

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
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

// SplitKey fills dst with the first len(dst) values of key, a Tuple.Key
// encoding of at least that many values. The values are substrings of key.
// It is Key's inverse, and it decodes no further than dst reaches.
func SplitKey(key string, dst []string) {
	off := 0
	for i := range dst {
		n := int(key[off] - '0')
		off++
		for c := key[off]; c != ':'; c = key[off] {
			n = n*10 + int(c-'0')
			off++
		}
		off++
		dst[i] = key[off : off+n]
		off += n
	}
}

// arenaChunkBytes caps the size of one arena chunk; a longer row gets a
// chunk of its own.
const arenaChunkBytes = 64 << 10

// maxRows caps a relation's row count: row ids are 32-bit.
const maxRows = math.MaxUint32 - 1

// hashSeed seeds every relation's tuple-set hash, so a Clone's copied table
// stays valid.
var hashSeed = maphash.MakeSeed()

// Loc locates one stored row: its Tuple.Key bytes are at offset off of
// chunk chunk, n bytes long. A Loc holds no pointer, so the garbage
// collector never scans a table of them.
type Loc struct{ chunk, off, n uint32 }

// Rows is a snapshot of a relation's first Len rows, in insertion order. A
// snapshot never changes: it is read without the relation's lock while
// inserts go on.
type Rows struct {
	// chunks are the arena chunks the rows lie in. A chunk's bytes are
	// written once, before the row that holds them is published, and never
	// again.
	chunks []string
	locs   []Loc
}

// Len returns the number of rows in the snapshot.
func (rs Rows) Len() int { return len(rs.locs) }

// Locs returns the rows' locations in insertion order. Callers must not
// mutate the result.
func (rs Rows) Locs() []Loc { return rs.locs }

// Key returns the Tuple.Key encoding of the row at l; SplitKey decodes it.
func (rs Rows) Key(l Loc) string { return rs.chunks[l.chunk][l.off : l.off+l.n] }

// Relation is a named set of tuples of fixed arity, behind one mutex. Each
// row is stored once, as its Tuple.Key bytes in an append-only chunked
// arena; a location table indexed by row id (insertion order, so it is the
// insert log) and an open-addressing tuple set of row ids hold no pointer.
// Insert, Contains, Len, Tuples, Version and Rows are individually safe for
// concurrent use; a reader that needs one atomic point-in-time view across
// inserts still requires external synchronization, which is what
// pdms.Network's and netpeer.Server's locks provide.
type Relation struct {
	name  string
	arity int

	mu sync.Mutex
	// chunks are the arena's chunks, guarded by mu. An element is set once,
	// when its chunk is allocated.
	chunks []string
	// free is the unwritten tail of chunk freeChunk, which starts at byte
	// freeOff; all three guarded by mu. Rows are copied into free.
	free      []byte
	freeChunk uint32
	freeOff   uint32
	// size is the length of the last small chunk allocated, guarded by mu:
	// chunks start at the size of the first row and double up to
	// arenaChunkBytes.
	size int
	// locs maps row id to row location, guarded by mu. It only grows, and
	// its elements are never written again.
	locs []Loc
	// set is the tuple set, guarded by mu: an open-addressing table of
	// (hash tag << 32 | row id + 1) entries, 0 for an empty slot. The tag
	// is the top 32 bits of the row's maphash, and an entry's home slot is
	// the tag's top bits, so the table regrows without rehashing rows.
	set []uint64
	// setBits is log2(len(set)), guarded by mu.
	setBits uint
	// gen counts inserts (== len(locs)). Atomic so generation reads (cache
	// keys, piggybacks) never take the lock.
	gen atomic.Uint64
	// view is the reused tuple the append hook sees, guarded by mu.
	view Tuple

	// hook, when non-nil, observes every successful insert (see
	// SetAppendHook). It must be installed before the relation is shared
	// across goroutines; Insert reads it without synchronization.
	hook AppendHook
}

// AppendHook observes one successful insert. It is invoked under the
// relation's lock, after the row has been stored and the generation
// bumped, with the stored row and the new generation — in exactly the
// insertion order. The tuple is a view that is valid only during the call:
// a hook that keeps it must copy it. A non-nil error aborts Insert with
// that error; the tuple remains inserted in memory, so hook errors mean
// "applied but possibly not durable" and callers (the storage tier) must
// treat the backing journal as failed.
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
	return &Relation{name: name, arity: arity}
}

// keyLocked returns the stored Key bytes of row id. Callers hold r.mu.
func (r *Relation) keyLocked(id uint64) string {
	l := r.locs[id]
	return r.chunks[l.chunk][l.off : l.off+l.n]
}

// findLocked looks key, whose maphash is h, up in the tuple set. It returns
// the slot holding key's row, or the empty slot where it would go, and
// whether the row is there. The set must be non-empty. Callers hold r.mu.
func (r *Relation) findLocked(key []byte, h uint64) (int, bool) {
	tag := h >> 32
	mask := len(r.set) - 1
	for i := int(tag >> (32 - r.setBits)); ; i = (i + 1) & mask {
		e := r.set[i]
		if e == 0 {
			return i, false
		}
		if e>>32 == tag && r.keyLocked(e&math.MaxUint32-1) == string(key) {
			return i, true
		}
	}
}

// growSetLocked doubles the tuple set (or creates it), re-placing every
// entry by its tag. Callers hold r.mu.
func (r *Relation) growSetLocked() {
	old := r.set
	r.setBits = max(3, r.setBits+1)
	r.set = make([]uint64, 1<<r.setBits)
	mask := len(r.set) - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := int(e >> 32 >> (32 - r.setBits))
		for r.set[i] != 0 {
			i = (i + 1) & mask
		}
		r.set[i] = e
	}
}

// storeLocked copies key into the arena and returns its location. Callers
// hold r.mu.
func (r *Relation) storeLocked(key []byte) Loc {
	n := len(key)
	if n > arenaChunkBytes {
		b := append([]byte(nil), key...)
		r.chunks = append(r.chunks, unsafe.String(unsafe.SliceData(b), n))
		return Loc{chunk: uint32(len(r.chunks) - 1), n: uint32(n)}
	}
	if r.chunks == nil || len(r.free) < n {
		r.size = max(n, min(2*r.size, arenaChunkBytes))
		b := make([]byte, r.size)
		r.chunks = append(r.chunks, unsafe.String(unsafe.SliceData(b), len(b)))
		r.free, r.freeChunk, r.freeOff = b, uint32(len(r.chunks)-1), 0
	}
	copy(r.free, key)
	l := Loc{chunk: r.freeChunk, off: r.freeOff, n: uint32(n)}
	r.free, r.freeOff = r.free[n:], r.freeOff+uint32(n)
	return l
}

// Insert adds a tuple (set semantics). It reports whether the tuple was new
// and returns an error on arity mismatch. A new tuple is copied into the
// relation's arena, so the caller keeps ownership of t and its values.
// The insert bumps the generation counter.
func (r *Relation) Insert(t Tuple) (bool, error) {
	if len(t) != r.arity {
		return false, fmt.Errorf("rel: %s arity %d, tuple %v has %d values", r.name, r.arity, t, len(t))
	}
	var buf [128]byte
	k := t.appendKey(buf[:0])
	h := maphash.Bytes(hashSeed, k)
	r.mu.Lock()
	if len(r.locs) >= maxRows || len(k) > math.MaxUint32 {
		r.mu.Unlock()
		return false, fmt.Errorf("rel: %s: row of %d bytes does not fit after %d rows", r.name, len(k), len(r.locs))
	}
	if 4*(len(r.locs)+1) > 3*len(r.set) {
		r.growSetLocked()
	}
	slot, found := r.findLocked(k, h)
	if found {
		r.mu.Unlock()
		return false, nil
	}
	id := len(r.locs)
	r.locs = append(r.locs, r.storeLocked(k))
	r.set[slot] = h>>32<<32 | uint64(id+1)
	gen := r.gen.Add(1)
	if hook := r.hook; hook != nil {
		// Still under the lock: the hook sees inserts in exactly the
		// insertion order, which is what lets the durable tier mirror the
		// relation frame for frame.
		if r.view == nil {
			r.view = make(Tuple, r.arity)
		}
		SplitKey(r.keyLocked(uint64(id)), r.view)
		if err := hook(r.view, gen); err != nil {
			r.mu.Unlock()
			return true, err
		}
	}
	r.mu.Unlock()
	return true, nil
}

// Version returns the number of inserts so far: monotonic, bumped once per
// new tuple, never by duplicates. Cache keys and the netpeer gens
// piggyback are built from this value; together with Rows it lets derived
// structures (engine indexes) catch up incrementally.
func (r *Relation) Version() uint64 { return r.gen.Load() }

// Rows returns a snapshot of the relation's rows. Tuples are never
// deleted, so the rows past a snapshot's first v are exactly what the
// relation gained since Version v.
func (r *Relation) Rows() Rows {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Rows{chunks: r.chunks[:len(r.chunks):len(r.chunks)], locs: r.locs[:len(r.locs):len(r.locs)]}
}

// Contains reports tuple membership.
func (r *Relation) Contains(t Tuple) bool {
	var buf [128]byte
	k := t.appendKey(buf[:0])
	h := maphash.Bytes(hashSeed, k)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.set == nil {
		return false
	}
	_, ok := r.findLocked(k, h)
	return ok
}

// Len returns the cardinality.
func (r *Relation) Len() int { return int(r.gen.Load()) }

// Tuples returns the tuples in column-wise (Compare) order, built on each
// call: the caller owns the result. The values are substrings of the
// relation's arena.
func (r *Relation) Tuples() []Tuple {
	rs := r.Rows()
	out := make([]Tuple, rs.Len())
	vals := make([]string, rs.Len()*r.arity)
	for i, l := range rs.locs {
		t := Tuple(vals[i*r.arity : (i+1)*r.arity : (i+1)*r.arity])
		SplitKey(rs.Key(l), t)
		out[i] = t
	}
	SortTuples(out)
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
// insertion order and generation counter (so generation-keyed caches carry
// over). The copy carries no append hooks.
func (ins *Instance) Clone() *Instance {
	ins.mu.RLock()
	defer ins.mu.RUnlock()
	rels := make(map[string]*Relation, len(ins.rels))
	for name, r := range ins.rels {
		// Build the copy fully formed before publishing it: the fresh
		// relation is unshared, so only the source's lock is needed.
		r.mu.Lock()
		// The copy shares the source's chunks and row locations, which are
		// never written again; full-slice expressions make either side's
		// later appends reallocate. Its free tail is empty, so its first
		// row opens a chunk of its own.
		nr := &Relation{
			name: name, arity: r.arity,
			chunks: r.chunks[:len(r.chunks):len(r.chunks)],
			locs:   r.locs[:len(r.locs):len(r.locs)],
			set:    slices.Clone(r.set), setBits: r.setBits,
			size: r.size,
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
