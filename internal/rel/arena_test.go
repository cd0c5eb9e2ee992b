package rel

import (
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// callerRow returns a row whose values are views of one caller-owned byte
// buffer, as a decoder that hands out unsafe views would; writing buf then
// rewrites the values in place.
func callerRow(buf []byte, cuts ...int) Tuple {
	t := make(Tuple, 0, len(cuts))
	start := 0
	for _, end := range cuts {
		t = append(t, unsafe.String(unsafe.SliceData(buf[start:]), end-start))
		start = end
	}
	return t
}

// TestInsertOwnsItsCopy: once Insert returns, the relation holds its own
// copy of the row. Overwriting the caller's []string and the bytes its
// values came from changes nothing the relation reports.
func TestInsertOwnsItsCopy(t *testing.T) {
	r := NewRelation("r", 3)
	var want []Tuple
	for i, vals := range [][]string{
		{"alpha", "", "beta\x00gamma"},
		{"", "", ""},
		{strings.Repeat("long", arenaChunkBytes/3), "x", "y"},
		{"alpha", "b", "c"},
	} {
		buf := []byte(strings.Join(vals, ""))
		cuts := []int{len(vals[0]), len(vals[0]) + len(vals[1]), len(buf)}
		row := callerRow(buf, cuts...)
		if ok, err := r.Insert(row); !ok || err != nil {
			t.Fatalf("row %d: Insert = %v, %v", i, ok, err)
		}
		want = append(want, Tuple(slices.Clone(vals)))
		for j := range buf {
			buf[j] = '#'
		}
		row[0], row[2] = "overwritten", "overwritten"
	}
	logged := r.AddedSince(0)
	if !slices.EqualFunc(logged, want, Tuple.Equal) {
		t.Fatalf("AddedSince after overwriting the caller's rows: %q, want %q", logged, want)
	}
	SortTuples(want)
	if got := r.Tuples(); !slices.EqualFunc(got, want, Tuple.Equal) {
		t.Fatalf("Tuples after overwriting the caller's rows: %q, want %q", got, want)
	}
	for _, w := range want {
		if !r.Contains(w) {
			t.Fatalf("Contains(%q) = false", w)
		}
	}
	// A stored row's header is clipped: appending to it cannot write over
	// the row stored after it.
	for _, stored := range logged {
		_ = append(stored, "spill")
	}
	if got := r.Tuples(); !slices.EqualFunc(got, want, Tuple.Equal) {
		t.Fatalf("an append to a stored row reached its neighbour: %q", got)
	}
}

// TestCloneArenasIndependent: a Clone and its source share the rows stored
// before the clone, and each takes new inserts into arenas of its own
// without the other seeing them. The clone is taken while the source's
// current chunk still has room (a 7-byte row, then a 14-byte chunk), and
// both sides then insert rows of equal size, so arenas shared by mistake
// would put the two sides' rows on the same bytes.
func TestCloneArenasIndependent(t *testing.T) {
	src := NewInstance()
	shared := []Tuple{{"a", "aa"}, {"b", "bb"}}
	for _, tu := range shared {
		src.MustAdd("p", tu...)
	}
	cl := src.Clone()
	own := map[*Instance][]Tuple{src: slices.Clone(shared), cl: slices.Clone(shared)}
	for i := range 200 {
		for ins, tag := range map[*Instance]string{src: "s", cl: "c"} {
			tu := Tuple{tag, strings.Repeat(tag, i)}
			ins.MustAdd("p", tu...)
			own[ins] = append(own[ins], tu)
		}
	}
	for ins, want := range own {
		SortTuples(want)
		if got := ins.Relation("p").Tuples(); !slices.EqualFunc(got, want, Tuple.Equal) {
			t.Fatalf("after inserts into both sides: got %q, want %q", got, want)
		}
	}
}

// TestAppendHookSeesStoredTuple: the hook receives the relation's stored
// row — the one the log holds — not the caller's.
func TestAppendHookSeesStoredTuple(t *testing.T) {
	r := NewRelation("r", 2)
	var hooked Tuple
	r.SetAppendHook(func(tu Tuple, _ uint64) error {
		hooked = tu
		return nil
	})
	row := Tuple{"key", "value"}
	if _, err := r.Insert(row); err != nil {
		t.Fatal(err)
	}
	stored := r.AddedSince(0)[0]
	if !hooked.Equal(row) {
		t.Fatalf("hook got %q, want %q", hooked, row)
	}
	for i := range row {
		if unsafe.StringData(hooked[i]) != unsafe.StringData(stored[i]) {
			t.Fatalf("hook value %d is not the stored value", i)
		}
		if unsafe.StringData(hooked[i]) == unsafe.StringData(row[i]) {
			t.Fatalf("hook value %d is the caller's value", i)
		}
	}
}
