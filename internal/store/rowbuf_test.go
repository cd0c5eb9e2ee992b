package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rel"
)

func collect(t *testing.T, b *RowBuffer) []rel.Tuple {
	t.Helper()
	var out []rel.Tuple
	if err := b.Iterate(func(tup rel.Tuple) error {
		out = append(out, tup)
		return nil
	}); err != nil {
		t.Fatalf("iterate: %v", err)
	}
	return out
}

func TestRowBufferSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const budget = 2048
	b := NewRowBuffer(dir, budget)
	defer b.Close()
	var want []rel.Tuple
	for i := 0; i < 300; i++ {
		tup := rel.Tuple{fmt.Sprintf("k%d", i%7), fmt.Sprintf("payload-%04d", i)}
		want = append(want, tup)
		if err := b.Append(tup); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if b.Spilled() == 0 {
		t.Fatalf("expected a spill under a %dB budget", budget)
	}
	if b.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(want))
	}
	// The in-memory high-water mark must stay bounded by the budget plus a
	// single row's accounting — that is the "larger than RAM budget" claim.
	maxRow := int64(0)
	for _, tup := range want {
		if n := TupleBytes(tup); n > maxRow {
			maxRow = n
		}
	}
	if b.MaxInMemoryBytes() > budget+maxRow {
		t.Fatalf("tail high-water %dB exceeds budget %dB + one row %dB", b.MaxInMemoryBytes(), int64(budget), maxRow)
	}
	// Two full passes: append order preserved each time.
	for pass := 0; pass < 2; pass++ {
		got := collect(t, b)
		if len(got) != len(want) {
			t.Fatalf("pass %d: got %d rows, want %d", pass, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("pass %d row %d: %v, want %v", pass, i, got[i], want[i])
			}
		}
	}
	// Close removes the spill file.
	if err := b.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "spill-*"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	if len(left) != 0 {
		t.Fatalf("spill files left behind: %v", left)
	}
}

func TestRowBufferInMemoryFastPath(t *testing.T) {
	b := NewRowBuffer("", 0) // spilling disabled
	defer b.Close()
	for i := 0; i < 100; i++ {
		if err := b.Append(rel.Tuple{fmt.Sprintf("%d", i)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if b.Spilled() != 0 {
		t.Fatalf("disabled buffer spilled")
	}
	if b.Len() != 100 {
		t.Fatalf("len = %d, want 100", b.Len())
	}
	got := collect(t, b)
	if len(got) != 100 {
		t.Fatalf("iterate saw %d rows", len(got))
	}
}

func TestRowBufferYieldError(t *testing.T) {
	dir := t.TempDir()
	b := NewRowBuffer(dir, 64)
	defer b.Close()
	for i := 0; i < 50; i++ {
		if err := b.Append(rel.Tuple{fmt.Sprintf("row-%06d", i)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	wantErr := fmt.Errorf("stop here")
	if err := b.Iterate(func(rel.Tuple) error { return wantErr }); err != wantErr {
		t.Fatalf("yield error not returned as-is: %v", err)
	}
	// The buffer stays usable after a yield abort.
	if got := collect(t, b); len(got) != 50 {
		t.Fatalf("post-abort iterate saw %d rows", len(got))
	}
}

func TestRowBufferSurfacesDiskErrors(t *testing.T) {
	dir := t.TempDir()
	b := NewRowBuffer(dir, 32)
	for i := 0; i < 20; i++ {
		if err := b.Append(rel.Tuple{fmt.Sprintf("row-%06d", i)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if b.Spilled() == 0 {
		t.Fatalf("expected spill")
	}
	// Destroy the spill file out from under the buffer: iteration must
	// return an error, not silently yield a truncated row set.
	if err := b.bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := os.Remove(b.f.Name()); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := b.Iterate(func(rel.Tuple) error { return nil }); err == nil {
		t.Fatalf("iterate succeeded with the spill file gone")
	}
}
