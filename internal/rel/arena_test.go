package rel

import (
	"reflect"
	"slices"
	"strconv"
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
	if logged := insertLog(r); !slices.EqualFunc(logged, want, Tuple.Equal) {
		t.Fatalf("rows after overwriting the caller's rows: %q, want %q", logged, want)
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
	// A built row's header is clipped: appending to it cannot write over
	// the row built after it.
	built := r.Tuples()
	for _, row := range built {
		_ = append(row, "spill")
	}
	if !slices.EqualFunc(built, want, Tuple.Equal) {
		t.Fatalf("an append to a built row reached its neighbour: %q", built)
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

// TestAppendHookSeesStoredRow: the hook receives the relation's stored
// row — the arena bytes themselves, in the row encoding — not a copy or
// the caller's values.
func TestAppendHookSeesStoredRow(t *testing.T) {
	r := NewRelation("r", 2)
	var hooked string
	r.SetAppendHook(func(row string, _ uint64) error {
		hooked = row
		return nil
	})
	row := Tuple{"key", "value"}
	if _, err := r.Insert(row); err != nil {
		t.Fatal(err)
	}
	rs := r.Rows()
	stored := rs.Key(rs.Since(0)[0])
	if hooked != "\x02\x03key\x05value" || hooked != stored {
		t.Fatalf("hook got %q, stored %q", hooked, stored)
	}
	if unsafe.StringData(hooked) != unsafe.StringData(stored) {
		t.Fatal("the hook's row is not the stored row")
	}
}

// TestInsertAllocsPerRow: a stored row costs no heap object of its own.
// Filling a fresh relation with a batch of new rows allocates the relation
// and the arena chunks, location table and tuple set it grows into — fewer
// than one object per 32 rows.
func TestInsertAllocsPerRow(t *testing.T) {
	const runs, batch = 4, 4096
	rows := make([]Tuple, batch)
	for i := range rows {
		rows[i] = Tuple{"id" + strconv.Itoa(i), "k" + strconv.Itoa(i%30), strings.Repeat("p", 40)}
	}
	allocs := testing.AllocsPerRun(runs, func() {
		r := NewRelation("r", 3)
		for _, row := range rows {
			if ok, err := r.Insert(row); !ok || err != nil {
				t.Fatalf("Insert(%v) = %v, %v", row, ok, err)
			}
		}
	})
	perRow := allocs / batch
	if perRow >= 1.0/32 {
		t.Fatalf("%.0f allocations for %d rows: %.4f per row, want < 1/32", allocs, batch, perRow)
	}
	t.Logf("%.0f allocations for %d rows (%.4f per row)", allocs, batch, perRow)
}

// TestStoredRowTablesPointerFree: the relation's per-row tables — the
// location table, the layout and the tuple set — are of pointer-free
// element types, so the garbage collector never scans them (the engine's
// TestIndexTablesPointerFree checks its index buckets, which hold Locs).
func TestStoredRowTablesPointerFree(t *testing.T) {
	var r Relation
	for _, typ := range []reflect.Type{reflect.TypeOf(r.locs), reflect.TypeOf(r.order), reflect.TypeOf(r.set)} {
		if elem := typ.Elem(); hasPointers(elem) {
			t.Fatalf("%v holds pointers", elem)
		}
	}
}

// hasPointers reports whether values of typ contain a pointer.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Struct:
		for i := range typ.NumField() {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}
