package rel

import (
	"errors"
	"testing"
	"unsafe"
)

// TestDecodeRowsCapped checks that the rows sharing a block's values slice
// are each capped at their own end, so an append to one cannot overwrite
// the next.
func TestDecodeRowsCapped(t *testing.T) {
	rows, err := DecodeRows(AppendRow(AppendRow(nil, []string{"a", "b"}), []string{"c"}))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(rows[0], "x")
	if rows[1][0] != "c" || cap(rows[0]) != 2 {
		t.Fatalf("appending to row 0 (cap %d) changed row 1 to %q", cap(rows[0]), rows[1])
	}
	// Every value is a substring of one string holding the block.
	base := uintptr(unsafe.Pointer(unsafe.StringData(rows[0][0])))
	if p := uintptr(unsafe.Pointer(unsafe.StringData(rows[1][0]))); p != base+5 {
		t.Fatalf("row 1's value is at %d bytes from row 0's, want 5", p-base)
	}
}

// TestInsertRowTakesOneCanonicalRow: InsertRow stores exactly one row of
// the relation's arity in its shortest spelling, and refuses everything
// else without storing it, so one tuple never enters the tuple set under
// two spellings.
func TestInsertRowTakesOneCanonicalRow(t *testing.T) {
	r := NewRelation("r", 2)
	for _, c := range []struct{ name, row string }{
		{"a non-shortest arity", "\x82\x00\x01a\x01b"},
		{"a non-shortest value length", "\x02\x81\x00a\x01b"},
		{"two rows", "\x02\x01a\x01b\x02\x01c\x01d"},
		{"the wrong arity", "\x01\x01a"},
		{"trailing bytes", "\x02\x01a\x01bz"},
		{"a value cut short", "\x02\x01a\x02b"},
		{"nothing", ""},
	} {
		if fresh, err := r.InsertRow([]byte(c.row)); fresh || !errors.Is(err, ErrBadBlock) {
			t.Errorf("%s: InsertRow(%q) = %v, %v; want ErrBadBlock", c.name, c.row, fresh, err)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d refused rows were stored", r.Len())
	}
	if fresh, err := r.InsertRow([]byte("\x02\x01a\x01b")); !fresh || err != nil {
		t.Fatalf("InsertRow of a canonical row = %v, %v", fresh, err)
	}
	if fresh, err := r.Insert(Tuple{"a", "b"}); fresh || err != nil {
		t.Fatalf("Insert of the row InsertRow stored = %v, %v; want a duplicate", fresh, err)
	}
	if !r.Contains(Tuple{"a", "b"}) || r.Len() != 1 {
		t.Fatal("the row InsertRow stored is not the tuple's")
	}
}
