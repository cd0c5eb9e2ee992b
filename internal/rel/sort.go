package rel

import (
	"encoding/binary"
	"slices"
	"sync"
)

// radixMinRows is the length from which SortTuples radix-sorts; shorter
// slices go straight to a comparison sort.
const radixMinRows = 256

// maxPooledRows caps the row count an idle sortScratch keeps capacity
// for, so one huge sort does not stay pinned between calls.
const maxPooledRows = 1 << 14

// maxIdleScratch caps how many sortScratch values wait for reuse: enough
// for the executor's union fan-out (engine.MaxUnionFanout) and a server's
// concurrent requests.
const maxIdleScratch = 8

// radixEntry is one row's sort key and its position in the input.
type radixEntry struct {
	key uint64
	i   uint32
}

// sortScratch is the reusable working memory of SortTuples and
// MergeDistinct. Its tuple slices are cleared before it goes back to the
// pool, so an idle scratch pins no rows.
type sortScratch struct {
	a, b  []radixEntry
	rows  []Tuple
	heads [][]Tuple
	// counts[p] is SortTuples' histogram of key byte p, counted from the
	// least significant. It lives here, not on the stack, so that a sort in
	// a fresh goroutine does not first grow its stack by 8 KiB.
	counts [8][256]uint32
}

// scratchPool is a free list of idle scratch under a mutex. Unlike a
// sync.Pool, whose reuse the race detector randomises, reuse here is
// certain, so a sort's allocation count is flat in every build.
var scratchPool struct {
	mu   sync.Mutex
	idle []*sortScratch // guarded by mu
}

func getScratch() *sortScratch {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	n := len(scratchPool.idle)
	if n == 0 {
		return new(sortScratch)
	}
	sc := scratchPool.idle[n-1]
	scratchPool.idle[n-1] = nil
	scratchPool.idle = scratchPool.idle[:n-1]
	return sc
}

func putScratch(sc *sortScratch) {
	if cap(sc.a) > maxPooledRows || cap(sc.rows) > maxPooledRows {
		return
	}
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	if len(scratchPool.idle) < maxIdleScratch {
		scratchPool.idle = append(scratchPool.idle, sc)
	}
}

// prefixKey is the first 8 bytes of t's column 0, big-endian and
// zero-padded, and 0 for a tuple of arity 0. Rows whose keys differ are in
// Compare order by key: a shorter prefix pads with 0, the lowest byte, as
// Compare sorts a prefix first.
func prefixKey(t Tuple) uint64 {
	if len(t) == 0 {
		return 0
	}
	var b [8]byte
	copy(b[:], t[0])
	return binary.BigEndian.Uint64(b[:])
}

// SortTuples sorts ts in place in Compare order. From radixMinRows rows it
// LSD-radix-sorts on prefixKey, skipping the byte positions every row
// shares, and calls Compare only inside runs of equal keys; its scratch
// comes from scratchPool.
func SortTuples(ts []Tuple) {
	n := len(ts)
	if n < radixMinRows {
		slices.SortFunc(ts, Compare)
		return
	}
	sc := getScratch()
	if cap(sc.a) < n {
		sc.a, sc.b = make([]radixEntry, n), make([]radixEntry, n)
	}
	if cap(sc.rows) < n {
		sc.rows = make([]Tuple, n)
	}
	src, dst := sc.a[:n], sc.b[:n]
	counts := &sc.counts
	clear(counts[:])
	for i, t := range ts {
		k := prefixKey(t)
		src[i] = radixEntry{k, uint32(i)}
		for p := range counts {
			counts[p][byte(k>>(8*p))]++
		}
	}
	for p := range counts {
		c := &counts[p]
		shift := 8 * p
		if c[byte(src[0].key>>shift)] == uint32(n) {
			continue // every row has the same byte here
		}
		var sum uint32
		for d, k := range c {
			c[d], sum = sum, sum+k
		}
		for _, e := range src {
			d := byte(e.key >> shift)
			dst[c[d]] = e
			c[d]++
		}
		src, dst = dst, src
	}
	rows := sc.rows[:n]
	copy(rows, ts)
	for j, e := range src {
		ts[j] = rows[e.i]
	}
	clear(rows)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && src[hi].key == src[lo].key {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(ts[lo:hi], Compare)
		}
		lo = hi
	}
	putScratch(sc)
}

// SortDistinct sorts ts in place in Compare order and drops repeats,
// returning the distinct prefix.
func SortDistinct(ts []Tuple) []Tuple {
	SortTuples(ts)
	return slices.CompactFunc(ts, Tuple.Equal)
}

// DistinctSorted returns the distinct union of the given tuple groups in
// column-wise (Compare) order — the answer-set semantics every UCQ
// evaluator shares — in a new slice, leaving the groups untouched. Groups
// that are each already sorted and distinct merge faster through
// MergeDistinct.
func DistinctSorted(groups ...[]Tuple) []Tuple {
	return SortDistinct(slices.Concat(groups...))
}

// minGallop is the number of rows one group must give in a row before
// MergeDistinct gallops through it.
const minGallop = 4

// MergeDistinct returns the distinct union of groups that are each
// distinct and in Compare order, itself in Compare order, in one new slice
// of exactly the union's size (nil for an empty union). The groups are
// left untouched.
//
// It is a galloping merge: a k-way heap merge that, once one group has
// given the smallest row minGallop times in a row, finds by exponential
// and then binary search where that group's rows reach the smallest head
// of the other groups, and copies the rows before it in one step. Groups
// that each hold their own range of rows thus cost a few searches, not a
// heap step per row. A repeat can only start a run of rows from one group,
// so only a run's first row is checked against the last row written.
func MergeDistinct(groups ...[]Tuple) []Tuple {
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total == 0 {
		return nil
	}
	sc := getScratch()
	if cap(sc.rows) < total {
		sc.rows = make([]Tuple, total)
	}
	h := sc.heads[:0]
	for _, g := range groups {
		if len(g) > 0 {
			h = append(h, g)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	buf := sc.rows[:0]
	wins := 0 // rows the group at h[0] has given in a row
	for len(h) > 1 {
		g, n := h[0], 1
		if wins < minGallop {
			if wins > 0 || len(buf) == 0 || !buf[len(buf)-1].Equal(g[0]) {
				buf = append(buf, g[0])
			}
		} else {
			b := h[1][0]
			if len(h) > 2 && Compare(h[2][0], b) < 0 {
				b = h[2][0]
			}
			n = gallop(g, b)
			buf = append(buf, g[:n]...)
		}
		if h[0] = g[n:]; len(h[0]) == 0 {
			last := len(h) - 1
			h[0], h[last] = h[last], nil
			h = h[:last]
			siftDown(h, 0)
			wins = 0
		} else if siftDown(h, 0) == 0 {
			wins++
		} else {
			wins = 0
		}
	}
	rest := h[0]
	if len(buf) > 0 && buf[len(buf)-1].Equal(rest[0]) {
		rest = rest[1:]
	}
	out := make([]Tuple, len(buf)+len(rest))
	copy(out[copy(out, buf):], rest)
	clear(buf)
	clear(h)
	sc.heads = h[:0]
	putScratch(sc)
	return out
}

// gallop returns the length of the run that opens g: its first row, which
// the caller takes whatever it is, and the rows after it below b. It
// doubles a probe until it reaches b or the end of g, then binary-searches
// the rows after the last probe below b.
func gallop(g []Tuple, b Tuple) int {
	lo, hi := 1, 1 // g[:lo] is the run so far
	for hi < len(g) && Compare(g[hi], b) < 0 {
		lo, hi = hi+1, 2*hi
	}
	hi = min(hi, len(g))
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if Compare(g[m], b) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// siftDown restores the min-heap order, by each group's first row, below
// position i, and returns the position the group at i ends at.
func siftDown(h [][]Tuple, i int) int {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && Compare(h[l][0], h[m][0]) < 0 {
			m = l
		}
		if r := 2*i + 2; r < len(h) && Compare(h[r][0], h[m][0]) < 0 {
			m = r
		}
		if m == i {
			return i
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
