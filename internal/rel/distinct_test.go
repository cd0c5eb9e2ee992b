package rel

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// distinctSortedByJoinedKey is the map-and-key DistinctSorted that the
// column-wise sort replaced: dedup through a set of NUL-joined keys, then
// sort by those keys. It is the reference for NUL-free values, where the
// joined key is injective and orders tuples exactly as Compare does.
func distinctSortedByJoinedKey(groups ...[]Tuple) []Tuple {
	key := func(t Tuple) string { return strings.Join(t, "\x00") }
	seen := map[string]bool{}
	var out []Tuple
	for _, g := range groups {
		for _, t := range g {
			if k := key(t); !seen[k] {
				seen[k] = true
				out = append(out, t)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

// randGroups draws 0–4 groups of tuples of one random width (1–4 columns)
// over a small alphabet, so duplicates within and across groups, values that
// are prefixes of each other and empty strings are all common.
func randGroups(rng *rand.Rand, alphabet []string) [][]Tuple {
	width := 1 + rng.Intn(4)
	groups := make([][]Tuple, rng.Intn(5))
	for g := range groups {
		for range rng.Intn(30) {
			t := make(Tuple, width)
			for c := range t {
				var sb strings.Builder
				for range rng.Intn(4) {
					sb.WriteString(alphabet[rng.Intn(len(alphabet))])
				}
				t[c] = sb.String()
			}
			groups[g] = append(groups[g], t)
		}
	}
	return groups
}

func TestDistinctSortedMatchesJoinedKeyReference(t *testing.T) {
	for seed := range 2000 {
		rng := rand.New(rand.NewSource(int64(seed)))
		groups := randGroups(rng, []string{"a", "b", "ab", "\x01", "z"})
		want := distinctSortedByJoinedKey(groups...)
		got := DistinctSorted(groups...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: groups %q\ngot  %q\nwant %q", seed, groups, got, want)
		}
	}
}

// TestDistinctSortedKeepsNULValuesApart: with NUL inside values, tuples a
// joined key would merge stay distinct, and the output is sorted, free of
// repeats and covers every input tuple.
func TestDistinctSortedKeepsNULValuesApart(t *testing.T) {
	a, b := Tuple{"a\x00b", "c"}, Tuple{"a", "b\x00c"}
	if got := DistinctSorted([]Tuple{a}, []Tuple{b, a}); len(got) != 2 {
		t.Fatalf("DistinctSorted merged NUL-bearing tuples: %q", got)
	}
	for seed := range 500 {
		rng := rand.New(rand.NewSource(int64(seed)))
		groups := randGroups(rng, []string{"a", "\x00", "a\x00", ""})
		got := DistinctSorted(groups...)
		for i := 1; i < len(got); i++ {
			if Compare(got[i-1], got[i]) >= 0 {
				t.Fatalf("seed %d: %q not strictly before %q", seed, got[i-1], got[i])
			}
		}
		for _, g := range groups {
			for _, tu := range g {
				found := false
				for _, o := range got {
					found = found || o.Equal(tu)
				}
				if !found {
					t.Fatalf("seed %d: %q lost", seed, tu)
				}
			}
		}
	}
}

// TestDistinctSortedAllocsFlat: the output slice is the only allocation,
// however many rows are sorted. A key string built per comparison or per
// row would grow with the row count.
func TestDistinctSortedAllocsFlat(t *testing.T) {
	allocs := func(rows int) float64 {
		groups := answerGroups(3, rows/3+1)
		return testing.AllocsPerRun(5, func() { DistinctSorted(groups...) })
	}
	small, large := allocs(10), allocs(10_000)
	if small != large || large > 2 {
		t.Fatalf("allocs per call: %v at 10 rows, %v at 10,000 rows; want equal and at most 2", small, large)
	}
}

// answerGroups builds n groups of rows (id, 48-byte payload), the shape of
// bulk_stream's answers, with the groups overlapping by a third. The ids
// are unpadded, so in Compare order the groups interleave row by row.
func answerGroups(n, rows int) [][]Tuple {
	groups := make([][]Tuple, n)
	for g := range groups {
		for j := range rows {
			id := g*rows*2/3 + j
			groups[g] = append(groups[g], answerRow(fmt.Sprintf("a%d", id), id))
		}
	}
	return groups
}

// answerRow is one answer-shaped row: key, then a 48-byte payload drawn
// from id.
func answerRow(key string, id int) Tuple {
	h := uint64(id) * 0x9e3779b97f4a7c15
	return Tuple{key, fmt.Sprintf("%016x%016x%016x", h, h*3, h*7)}
}

// blockGroups builds n groups, each of rows answer-shaped rows, over
// zero-padded ids that the groups take in turns, block ids at a time:
// group g holds the ids whose block number id/block is g modulo n. A block
// of rows or more makes the groups range-disjoint, each storing peer's
// keys its own.
func blockGroups(n, rows, block int) [][]Tuple {
	groups := make([][]Tuple, n)
	for id := 0; id < n*rows; id++ {
		g := id / block % n
		groups[g] = append(groups[g], answerRow(fmt.Sprintf("a%06d", id), id))
	}
	return groups
}

// overlapGroups builds n small groups, the shape of adhoc_swarm's union
// of 84 rewritings' answers: group g holds the values g .. g+2, so
// neighbours overlap by two.
func overlapGroups(n int) [][]Tuple {
	groups := make([][]Tuple, n)
	for g := range groups {
		for v := g; v < g+3; v++ {
			groups[g] = append(groups[g], Tuple{fmt.Sprintf("v%03d", v), "x"})
		}
	}
	return groups
}

func TestCompare(t *testing.T) {
	for _, c := range []struct {
		t, u Tuple
		want int
	}{
		{Tuple{}, Tuple{}, 0},
		{Tuple{"a"}, Tuple{"a"}, 0},
		{Tuple{"a"}, Tuple{"a", ""}, -1},
		{Tuple{"a", "z"}, Tuple{"ab"}, -1},
		{Tuple{"", "z"}, Tuple{"\x00"}, -1},
		{Tuple{"b"}, Tuple{"a", "z"}, 1},
	} {
		if got := Compare(c.t, c.u); got != c.want {
			t.Errorf("Compare(%q, %q) = %d, want %d", c.t, c.u, got, c.want)
		}
		if got := Compare(c.u, c.t); got != -c.want {
			t.Errorf("Compare(%q, %q) = %d, want %d", c.u, c.t, got, -c.want)
		}
	}
}

// vals is one single-column row per id, zero-padded so that Compare
// orders the rows as their ids.
func vals(ids ...int) []Tuple {
	ts := make([]Tuple, len(ids))
	for i, id := range ids {
		ts[i] = Tuple{fmt.Sprintf("%04d", id)}
	}
	return ts
}

// span is vals of the ids lo .. hi-1.
func span(lo, hi int) []Tuple {
	var ts []Tuple
	for id := lo; id < hi; id++ {
		ts = append(ts, vals(id)...)
	}
	return ts
}

// TestMergeDistinct pins MergeDistinct on the group shapes EvalUnion
// hands it: no groups, one group, empty groups, overlapping groups, and
// 84 groups, adhoc_swarm's rewriting count. Then, against the map-and-key
// reference, on the shapes where a gallop can go wrong: runs that end on
// or empty at another group's head, a bound that only the heap's second
// child holds, runs around minGallop rows long, and one group much longer
// than the rest.
func TestMergeDistinct(t *testing.T) {
	type mergeCase struct {
		name   string
		groups [][]Tuple
		want   []Tuple
	}
	a, b, c := Tuple{"a"}, Tuple{"b"}, Tuple{"c"}
	many := overlapGroups(84)
	var manyWant []Tuple
	for g := range many {
		manyWant = append(manyWant, Tuple{fmt.Sprintf("v%03d", g), "x"})
	}
	manyWant = append(manyWant, Tuple{"v084", "x"}, Tuple{"v085", "x"})
	cases := []mergeCase{
		{"no groups", nil, nil},
		{"one group", [][]Tuple{{a, b}}, []Tuple{a, b}},
		{"empty groups", [][]Tuple{nil, {}, nil}, nil},
		{"empty groups around one", [][]Tuple{nil, {a, c}, {}}, []Tuple{a, c}},
		{"overlapping", [][]Tuple{{a, b}, {b, c}, {a, c}}, []Tuple{a, b, c}},
		{"equal groups", [][]Tuple{{a, b}, {a, b}}, []Tuple{a, b}},
		{"84 groups", many, manyWant},
	}
	gallops := func(name string, groups ...[]Tuple) {
		cases = append(cases, mergeCase{name, groups, distinctSortedByJoinedKey(groups...)})
	}
	gallops("disjoint ranges", span(0, 100), span(200, 300), span(100, 200))
	gallops("disjoint answers", blockGroups(3, 500, 500)...)
	// A galloped run stops on a row another group also holds: it appears
	// once, whichever group gives it.
	gallops("run ends on a head", slices.Concat(span(0, 10), span(20, 30)), vals(9, 15))
	gallops("run ends on a head at its group's end", span(0, 10), span(9, 15))
	gallops("run ends on a head in the second child", span(0, 20), span(40, 50), span(12, 30))
	// A run empties its group: by a gallop, or by a single row equal to
	// the next group's head after the group gave rows in a row.
	gallops("run empties mid-gallop", span(0, 10), span(50, 60), span(100, 110))
	gallops("run empties onto an equal head", span(0, 6), span(5, 8), vals(5))
	gallops("runs empty in turn", span(0, 30), span(29, 60), span(59, 90), span(89, 120))
	// The smallest head of the other groups is in the heap's second
	// child, h[2], or its first, h[1].
	gallops("bound in h[2]", span(0, 20), span(30, 40), span(10, 12))
	gallops("bound in h[1]", span(0, 20), span(10, 12), span(30, 40))
	gallops("bound in h[2], h[1] with children", span(0, 40), span(50, 60), span(10, 20), span(60, 70), span(70, 80))
	// One group ten times longer than the others, which fall inside it.
	var tenths []int
	for id := 5; id < 1000; id += 10 {
		tenths = append(tenths, id)
	}
	gallops("one long group", span(0, 1000), span(300, 400), vals(tenths...))
	// Groups that take turns in blocks around minGallop rows long: apart,
	// and with each block starting on the row that ended the one before.
	for _, block := range []int{1, minGallop - 1, minGallop, minGallop + 1, 2 * minGallop} {
		for _, n := range []int{2, 3} {
			gallops(fmt.Sprintf("%d groups in blocks of %d", n, block), blockGroups(n, 6*block, block)...)
			shared := make([][]Tuple, n)
			for id := 0; id < 6*n*block; id++ {
				g := id / block % n
				shared[g] = append(shared[g], vals(id)...)
				if id%block == block-1 {
					shared[(g+1)%n] = append(shared[(g+1)%n], vals(id)...)
				}
			}
			gallops(fmt.Sprintf("%d groups in blocks of %d sharing their ends", n, block), shared...)
		}
	}
	for _, c := range cases {
		got := MergeDistinct(c.groups...)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %q\nwant %q", c.name, got, c.want)
		}
		if len(got) != cap(got) {
			t.Errorf("%s: %d rows in a slice of capacity %d, want exact size", c.name, len(got), cap(got))
		}
	}
	// The result is a new slice: writing it leaves the groups alone.
	g := []Tuple{a, b}
	MergeDistinct(g)[0] = c
	if !g[0].Equal(a) {
		t.Fatal("MergeDistinct's result aliases its input group")
	}
}

// TestGallop: gallop takes g's first row, then the rows below b, for
// every b from g's first row past its last, on and between g's rows, and
// for every length around the search's doublings.
func TestGallop(t *testing.T) {
	for n := 1; n <= 40; n++ {
		var ids []int
		for i := range n {
			ids = append(ids, 2*i)
		}
		g := vals(ids...)
		for b := 0; b <= 2*n; b++ {
			if got, want := gallop(g, vals(b)[0]), max((b+1)/2, 1); got != want {
				t.Fatalf("gallop over %d rows to %d: %d, want %d", n, b, got, want)
			}
		}
	}
}

// TestMergeDistinctAllocsFlat: a non-empty merge makes one allocation, its
// result, on range-disjoint, interleaved and many small groups alike. Its
// scratch comes from a free list whose reuse is certain, so this holds
// under the race detector too.
func TestMergeDistinctAllocsFlat(t *testing.T) {
	interleaved := answerGroups(3, 2500)
	for i, g := range interleaved {
		interleaved[i] = SortDistinct(slices.Clone(g))
	}
	for _, c := range []struct {
		name   string
		groups [][]Tuple
	}{
		{"disjoint", blockGroups(3, 2500, 2500)},
		{"interleaved", interleaved},
		{"84 groups", overlapGroups(84)},
	} {
		if allocs := testing.AllocsPerRun(5, func() { MergeDistinct(c.groups...) }); allocs != 1 {
			t.Errorf("%s: %v allocations per merge, want 1", c.name, allocs)
		}
	}
}
