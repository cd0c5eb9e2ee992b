package rel

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// maxShards caps the shard count of one relation; beyond this, per-shard
// fixed costs (index maps, worker scheduling) outweigh any
// remaining parallelism.
const maxShards = 256

// DefaultShards is the shard count NewRelation and NewInstance use: one
// shard per schedulable CPU (runtime.GOMAXPROCS), so parallel scans can keep
// every core busy, clamped to [1, 256]. A single-CPU process therefore gets
// the unsharded (N=1) layout automatically.
func DefaultShards() int {
	return clampShards(runtime.GOMAXPROCS(0))
}

func clampShards(n int) int {
	if n < 1 {
		return 1
	}
	if n > maxShards {
		return maxShards
	}
	return n
}

// fnv64a is the FNV-1a hash that routes a tuple to its shard.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ShardOf returns the shard index (in [0, n)) that a first-column value v
// routes to under n-way hash partitioning. Exported so the engine can route
// probes whose bound-position set includes column 0 to the single shard
// that can hold matches; it must stay in lockstep with Insert's placement.
func ShardOf(v string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(fnv64a(v) % uint64(n))
}

// shard is one hash partition of a relation: its own tuple set, append-only
// insert log and monotonic generation counter, all guarded by the shard's
// own mutex so inserts and index catch-ups on different shards never
// contend.
type shard struct {
	mu sync.Mutex
	// tuples is the shard's tuple set, guarded by mu.
	tuples map[string]Tuple
	// log is the shard's append-only insert log, guarded by mu.
	log []Tuple
	// gen counts this shard's inserts (== len(log)). Atomic so generation
	// reads (cache keys, piggybacks) never take the shard lock.
	gen atomic.Uint64
}

// Relation is a named set of tuples of fixed arity, hash-partitioned over
// NumShards() shards by the first column's value. Insert, Contains, Len,
// Tuples and the per-shard accessors are individually safe for concurrent
// use (each shard self-synchronizes); a reader that needs one atomic
// point-in-time view across inserts still requires external synchronization,
// which is what pdms.Network's and netpeer.Server's locks provide.
type Relation struct {
	name   string
	arity  int
	shards []*shard

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

// AppendHook observes one successful insert. It is invoked under the owning
// shard's lock, after the tuple has been appended to the shard log and the
// shard generation bumped, with the shard index, the (defensively copied)
// tuple, and the shard's new generation — in exactly that shard's log order.
// A non-nil error aborts Insert with that error; the tuple remains inserted
// in memory, so hook errors mean "applied but possibly not durable" and
// callers (the storage tier) must treat the backing journal as failed.
type AppendHook func(shard int, t Tuple, gen uint64) error

// Name returns the relation's predicate name (fixed at creation).
func (r *Relation) Name() string { return r.name }

// Arity returns the relation's column count (fixed at creation).
func (r *Relation) Arity() int { return r.arity }

// SetAppendHook installs h as the relation's insert observer (nil removes
// it). It must be called before the relation is shared across goroutines:
// Insert reads the hook without synchronization.
func (r *Relation) SetAppendHook(h AppendHook) { r.hook = h }

// NewRelation creates an empty relation with DefaultShards() shards.
func NewRelation(name string, arity int) *Relation {
	return NewRelationSharded(name, arity, 0)
}

// NewRelationSharded creates an empty relation with n hash partitions
// (n <= 0 selects DefaultShards(); n is clamped to at most 256). n = 1
// reproduces the unsharded layout: one tuple set, one log, one generation
// counter.
func NewRelationSharded(name string, arity, n int) *Relation {
	if n <= 0 {
		n = DefaultShards()
	}
	n = clampShards(n)
	r := &Relation{name: name, arity: arity, shards: make([]*shard, n)}
	for i := range r.shards {
		r.shards[i] = &shard{tuples: map[string]Tuple{}}
	}
	return r
}

// NumShards returns the relation's shard count (fixed at creation).
func (r *Relation) NumShards() int { return len(r.shards) }

// ShardFor returns the shard index a tuple whose first column is v lives in.
func (r *Relation) ShardFor(v string) int { return ShardOf(v, len(r.shards)) }

// ShardOfTuple returns the shard index tuple t lives in: its first column's
// shard, and shard 0 for a tuple of arity 0. Insert places every tuple
// here, so a check that a tuple sits in the right shard (journal replay's)
// must ask this, not ShardFor.
func (r *Relation) ShardOfTuple(t Tuple) int {
	if len(t) == 0 {
		return 0
	}
	return ShardOf(t[0], len(r.shards))
}

// Insert adds a tuple (set semantics). It reports whether the tuple was new
// and returns an error on arity mismatch. Inserts to different shards
// proceed in parallel; the insert bumps its shard's generation counter.
func (r *Relation) Insert(t Tuple) (bool, error) {
	if len(t) != r.arity {
		return false, fmt.Errorf("rel: %s arity %d, tuple %v has %d values", r.name, r.arity, t, len(t))
	}
	si := r.ShardOfTuple(t)
	s := r.shards[si]
	k := t.Key()
	s.mu.Lock()
	if _, ok := s.tuples[k]; ok {
		s.mu.Unlock()
		return false, nil
	}
	cp := make(Tuple, len(t))
	copy(cp, t)
	s.tuples[k] = cp
	s.log = append(s.log, cp)
	s.gen.Add(1)
	if h := r.hook; h != nil {
		// Still under the shard lock: the hook sees inserts in exactly the
		// shard log's order, which is what lets the durable tier mirror the
		// log frame for frame.
		if err := h(si, cp, s.gen.Load()); err != nil {
			s.mu.Unlock()
			return true, err
		}
	}
	s.mu.Unlock()
	return true, nil
}

// Version returns the number of inserts so far: the fold (sum) of the
// per-shard generation counters, so it is exactly the pre-sharding single
// counter — monotonic, bumped once per new tuple, never by duplicates.
// Cache keys and the netpeer gens piggyback are built from this value; the
// per-shard vector behind it is exposed by ShardVersion for derived
// structures (engine indexes) that catch up shard by shard.
func (r *Relation) Version() uint64 {
	var v uint64
	for _, s := range r.shards {
		v += s.gen.Load()
	}
	return v
}

// ShardVersion returns shard s's generation: the number of inserts it has
// absorbed. Together with ShardAddedSince it lets derived structures (hash
// indexes, materialized views) catch up incrementally per shard: tuples are
// never deleted, so shard s's log suffix log[v:] is exactly what changed in
// that shard since its version v.
func (r *Relation) ShardVersion(s int) uint64 { return r.shards[s].gen.Load() }

// ShardAddedSince returns the tuples inserted into shard s after its
// version v, in that shard's insertion order. Callers must not mutate the
// result. ShardAddedSince(s, 0) enumerates the whole shard without paying a
// sort; concatenated over all shards it enumerates the whole relation
// (distinct by construction, in no particular global order).
func (r *Relation) ShardAddedSince(s int, v uint64) []Tuple {
	sh := r.shards[s]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v > uint64(len(sh.log)) {
		return nil
	}
	return sh.log[v:]
}

// ShardLen returns the number of tuples in shard s (skew observability).
func (r *Relation) ShardLen(s int) int {
	sh := r.shards[s]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.tuples)
}

// Contains reports tuple membership (routed to the owning shard).
func (r *Relation) Contains(t Tuple) bool {
	s := r.shards[r.ShardOfTuple(t)]
	var buf [128]byte
	k := t.appendKey(buf[:0])
	s.mu.Lock()
	_, ok := s.tuples[string(k)]
	s.mu.Unlock()
	return ok
}

// Len returns the cardinality.
func (r *Relation) Len() int {
	n := 0
	for _, s := range r.shards {
		s.mu.Lock()
		n += len(s.tuples)
		s.mu.Unlock()
	}
	return n
}

// Tuples returns the tuples in column-wise (Compare) order, gathered
// across shards. The result is cached per Version and shared: callers must
// not mutate it.
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
	var out []Tuple
	for s := range r.shards {
		out = append(out, r.ShardAddedSince(s, 0)...)
	}
	slices.SortFunc(out, Compare)
	r.sorted, r.sortedVer = out, v
	return out
}

// DistinctSorted returns the distinct union of the given tuple groups in
// column-wise (Compare) order — the answer-set semantics every UCQ
// evaluator shares. It concatenates, sorts and drops adjacent repeats, so
// it builds no key strings and no set; the groups are left untouched.
func DistinctSorted(groups ...[]Tuple) []Tuple {
	out := slices.Concat(groups...)
	slices.SortFunc(out, Compare)
	return slices.CompactFunc(out, Tuple.Equal)
}

// Instance maps predicate names to relations. The zero value is unusable;
// use NewInstance. Relations created on first Add inherit the instance's
// shard count.
//
// The relation map self-synchronizes: lookups take the read side of an
// internal RWMutex and lazy creation (Add on a new predicate) the write
// side, so concurrent Adds, catalog walks and generation reads are safe
// without external locking. The lock covers map *membership* only —
// relation contents self-synchronize at the shard level — so no caller
// ever holds it across tuple work.
type Instance struct {
	// mu guards the relation map and the hook factory. Creation is the
	// only write: two concurrent Adds to a fresh predicate must not both
	// install a relation (one would overwrite — and so lose — the other's
	// tuples), and a map insert must not race a concurrent reader.
	mu   sync.RWMutex
	rels map[string]*Relation // guarded by mu
	// nshards is the shard count for relations this instance creates
	// (0 = DefaultShards()). Immutable after construction.
	nshards int
	// hooks, when non-nil, supplies the append hook for every relation the
	// instance holds or later creates (see SetAppendHook). Guarded by mu:
	// creation paths read it under the write lock they already hold.
	hooks HookFactory
}

// HookFactory returns the append hook for one relation of an instance,
// given its predicate name, arity and shard count — or nil for none. The
// storage tier uses this to journal every relation an instance creates,
// including those materialized lazily by Add.
type HookFactory func(pred string, arity, shards int) AppendHook

// NewInstance returns an empty instance whose relations use DefaultShards()
// hash partitions.
func NewInstance() *Instance {
	return NewInstanceSharded(0)
}

// NewInstanceSharded returns an empty instance whose relations are created
// with n hash partitions (n <= 0 selects DefaultShards(); 1 reproduces the
// unsharded layout).
func NewInstanceSharded(n int) *Instance {
	return &Instance{rels: map[string]*Relation{}, nshards: n}
}

// SetAppendHook installs f as the instance's append-hook factory (nil
// removes it): f is consulted for every relation the instance currently
// holds and every relation Add creates later. Like Relation.SetAppendHook
// it must be called before the instance is shared across goroutines (the
// per-relation hook fields are read without synchronization by Insert).
// Clones and reshards never inherit hooks — they are independent in-memory
// copies, not views of the journaled instance.
func (ins *Instance) SetAppendHook(f HookFactory) {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	ins.hooks = f
	for name, r := range ins.rels {
		if f == nil {
			r.SetAppendHook(nil)
			continue
		}
		r.SetAppendHook(f(name, r.arity, r.NumShards()))
	}
}

// Clone returns a deep copy of the instance, preserving every relation's
// shard layout, per-shard logs and generation counters (so
// generation-keyed caches carry over).
// The copy carries no append hooks.
func (ins *Instance) Clone() *Instance {
	ins.mu.RLock()
	defer ins.mu.RUnlock()
	rels := make(map[string]*Relation, len(ins.rels))
	for name, r := range ins.rels {
		nr := NewRelationSharded(name, r.arity, r.NumShards())
		for i, s := range r.shards {
			// Build the copy in locals and publish it fully formed: the
			// fresh shard is unshared, so only the source shard's lock is
			// needed.
			s.mu.Lock()
			tuples := make(map[string]Tuple, len(s.tuples))
			for k, t := range s.tuples {
				tuples[k] = t
			}
			ns := &shard{
				tuples: tuples,
				// Full-slice expression: later appends to either log must
				// not share backing storage.
				log: s.log[:len(s.log):len(s.log)],
			}
			ns.gen.Store(s.gen.Load())
			s.mu.Unlock()
			nr.shards[i] = ns
		}
		rels[name] = nr
	}
	return &Instance{rels: rels, nshards: ins.nshards}
}

// Reshard returns a copy of ins whose relations are repartitioned over n
// shards (n <= 0 selects DefaultShards()). Tuple contents are preserved;
// per-shard logs and generations are rebuilt by reinsertion, so
// the copy starts a fresh generation history.
func Reshard(ins *Instance, n int) *Instance {
	rels := map[string]*Relation{}
	for _, name := range ins.Relations() {
		r := ins.Relation(name)
		nr := NewRelationSharded(name, r.arity, n)
		for s := range r.shards {
			for _, t := range r.ShardAddedSince(s, 0) {
				if _, err := nr.Insert(t); err != nil {
					// Arity is preserved by construction; unreachable.
					panic(err)
				}
			}
		}
		rels[name] = nr
	}
	return &Instance{rels: rels, nshards: n}
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
// it has absorbed (Relation.Version, the fold of the per-shard counters),
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
// given arity and n hash partitions if absent (n <= 0 selects the
// instance's shard count). Recovery uses it to rebuild relations with their
// recorded shard layout regardless of the instance default. Creation is
// serialized under the instance lock, so concurrent ensurers agree on one
// relation.
func (ins *Instance) EnsureRelation(pred string, arity, n int) *Relation {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	return ins.ensureLocked(pred, arity, n)
}

// ensureLocked returns the named relation, creating it (with its hook, if
// a factory is installed) when absent. Callers hold ins.mu exclusively.
func (ins *Instance) ensureLocked(pred string, arity, n int) *Relation {
	if r, ok := ins.rels[pred]; ok {
		return r
	}
	if n <= 0 {
		n = ins.nshards
	}
	r := NewRelationSharded(pred, arity, n)
	if ins.hooks != nil {
		r.SetAppendHook(ins.hooks(pred, r.arity, r.NumShards()))
	}
	ins.rels[pred] = r
	return r
}

// Add inserts a tuple into pred, creating the relation on first use (with
// the instance's shard count). It reports whether the tuple was new.
// Lookups take the instance lock's read side and first-use creation its
// write side (double-checked, so racing creators converge on one
// relation); the tuple insert itself runs outside the instance lock —
// shards self-synchronize — so concurrent Adds to an existing relation
// never serialize here.
func (ins *Instance) Add(pred string, t Tuple) (bool, error) {
	ins.mu.RLock()
	r, ok := ins.rels[pred]
	ins.mu.RUnlock()
	if !ok {
		ins.mu.Lock()
		r = ins.ensureLocked(pred, len(t), ins.nshards)
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
