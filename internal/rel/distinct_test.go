package rel

import (
	"fmt"
	"math/rand"
	"reflect"
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
// bulk_stream's answers, with the groups overlapping by a third.
func answerGroups(n, rows int) [][]Tuple {
	groups := make([][]Tuple, n)
	for g := range groups {
		for j := range rows {
			id := g*rows*2/3 + j
			h := uint64(id) * 0x9e3779b97f4a7c15
			groups[g] = append(groups[g], Tuple{
				fmt.Sprintf("a%d", id),
				fmt.Sprintf("%016x%016x%016x", h, h*3, h*7),
			})
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

// TestMergeDistinct pins MergeDistinct on the group shapes EvalUnion
// hands it: no groups, one group, empty groups, overlapping groups, and
// 84 groups, adhoc_swarm's rewriting count.
func TestMergeDistinct(t *testing.T) {
	a, b, c := Tuple{"a"}, Tuple{"b"}, Tuple{"c"}
	many := make([][]Tuple, 84)
	var manyWant []Tuple
	for g := range many {
		// Group g holds the values g .. g+2: neighbours overlap by two.
		for v := g; v < g+3; v++ {
			many[g] = append(many[g], Tuple{fmt.Sprintf("v%03d", v), "x"})
		}
		manyWant = append(manyWant, Tuple{fmt.Sprintf("v%03d", g), "x"})
	}
	manyWant = append(manyWant, Tuple{"v084", "x"}, Tuple{"v085", "x"})
	for _, c := range []struct {
		name   string
		groups [][]Tuple
		want   []Tuple
	}{
		{"no groups", nil, nil},
		{"one group", [][]Tuple{{a, b}}, []Tuple{a, b}},
		{"empty groups", [][]Tuple{nil, {}, nil}, nil},
		{"empty groups around one", [][]Tuple{nil, {a, c}, {}}, []Tuple{a, c}},
		{"overlapping", [][]Tuple{{a, b}, {b, c}, {a, c}}, []Tuple{a, b, c}},
		{"equal groups", [][]Tuple{{a, b}, {a, b}}, []Tuple{a, b}},
		{"84 groups", many, manyWant},
	} {
		got := MergeDistinct(c.groups...)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
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
