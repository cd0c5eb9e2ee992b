package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/rel"
)

// Package-wide spill counters, exported through RegisterMetrics as the
// storage.spill* metrics. They aggregate across every RowBuffer (executor
// partial joins) and the fragment cache's cold-entry spills.
var (
	spillCount      atomic.Uint64 // spill flushes (tail -> disk)
	spillBytesTotal atomic.Uint64 // accounted row bytes spilled
	spillRowsTotal  atomic.Uint64 // rows spilled
	spillLoads      atomic.Uint64 // reads that streamed spilled rows back
)

// NoteSpill records rows/bytes spilled to disk by a spill structure outside
// this package (the fragment cache).
func NoteSpill(rows int, bytes int64) {
	spillCount.Add(1)
	spillRowsTotal.Add(uint64(rows))
	spillBytesTotal.Add(uint64(bytes))
}

// NoteSpillLoad records one read that streamed spilled rows back from disk.
func NoteSpillLoad() { spillLoads.Add(1) }

// SpillStats is a snapshot of the process-wide spill counters (also exposed
// as the storage.spill* metrics).
type SpillStats struct {
	Spills, Rows, Bytes, Loads uint64
}

// SpillStatsSnapshot returns the current process-wide spill counters; tests
// diff two snapshots to prove a code path actually spilled.
func SpillStatsSnapshot() SpillStats {
	return SpillStats{
		Spills: spillCount.Load(),
		Rows:   spillRowsTotal.Load(),
		Bytes:  spillBytesTotal.Load(),
		Loads:  spillLoads.Load(),
	}
}

// TupleBytes is the byte-accounting estimate spill budgets are measured in:
// the string payload plus a fixed per-value overhead approximating Go's
// slice/header costs. It deliberately overestimates slightly — a budget
// should spill early, not late.
func TupleBytes(t rel.Tuple) int64 {
	n := int64(24) // slice header + growth slack
	for _, v := range t {
		n += int64(len(v)) + 16
	}
	return n
}

// RowBuffer is an append-only tuple sequence with a byte budget: rows
// accumulate in a fixed-size in-memory tail, and once the tail's accounted
// bytes exceed the budget it is flushed to an on-disk spill segment (the
// same length-prefixed frame format the durable tier uses) and the tail
// restarts empty. Iteration streams the spilled prefix back with buffered
// sequential reads and then walks the tail, preserving append order.
//
// With spilling disabled (no directory or no budget) a RowBuffer is just a
// slice with byte accounting: appends pay nothing beyond the per-row size
// estimate and iteration walks the slice.
//
// A RowBuffer is single-goroutine (the executor's join loop); it is not
// safe for concurrent use. Close removes the spill file.
type RowBuffer struct {
	dir    string
	budget int64

	rows      []rel.Tuple
	tailBytes int64
	// maxTail is the high-water mark of tailBytes — the proof obligation
	// for "in-memory footprint bounded by the budget".
	maxTail int64

	f       *os.File
	bw      *bufio.Writer
	spilled int   // rows on disk
	diskErr error // first spill I/O error; surfaced on the next operation
	buf     []byte
}

// NewRowBuffer returns a buffer spilling to a file under dir once the
// in-memory tail exceeds budget bytes. An empty dir or a non-positive
// budget disables spilling (pure in-memory operation).
func NewRowBuffer(dir string, budget int64) *RowBuffer {
	return &RowBuffer{dir: dir, budget: budget}
}

// Len returns the number of rows appended (spilled + in-memory).
func (b *RowBuffer) Len() int { return b.spilled + len(b.rows) }

// MaxInMemoryBytes returns the high-water mark of the in-memory tail's
// accounted bytes (never exceeds budget + one row once spilling is
// enabled).
func (b *RowBuffer) MaxInMemoryBytes() int64 { return b.maxTail }

// Spilled returns the number of rows currently on disk.
func (b *RowBuffer) Spilled() int { return b.spilled }

// Append adds one row. The row is retained as-is (not copied); callers
// must not mutate it afterwards.
func (b *RowBuffer) Append(t rel.Tuple) error {
	if b.diskErr != nil {
		return b.diskErr
	}
	b.rows = append(b.rows, t)
	b.tailBytes += TupleBytes(t)
	if b.tailBytes > b.maxTail {
		b.maxTail = b.tailBytes
	}
	if b.budget > 0 && b.dir != "" && b.tailBytes > b.budget {
		if err := b.spillTail(); err != nil {
			b.diskErr = err
			return err
		}
	}
	return nil
}

// spillTail writes every in-memory row to the spill file and resets the
// tail.
func (b *RowBuffer) spillTail() error {
	if b.f == nil {
		f, err := os.CreateTemp(b.dir, "spill-*.seg")
		if err != nil {
			return err
		}
		b.f = f
		b.bw = bufio.NewWriterSize(f, 256<<10)
		arity := 0
		if len(b.rows) > 0 {
			arity = len(b.rows[0])
		}
		hdr, err := json.Marshal(segHeader{Magic: segMagic, Rel: "!spill", Arity: arity, Shards: 1})
		if err != nil {
			return err
		}
		b.buf = appendFrame(b.buf[:0], hdr)
		if _, err := b.bw.Write(b.buf); err != nil {
			return err
		}
	}
	for _, t := range b.rows {
		payload, err := encodeTuple(t)
		if err != nil {
			return err
		}
		b.buf = appendFrame(b.buf[:0], payload)
		if _, err := b.bw.Write(b.buf); err != nil {
			return err
		}
	}
	NoteSpill(len(b.rows), b.tailBytes)
	b.spilled += len(b.rows)
	b.rows = b.rows[:0]
	b.tailBytes = 0
	return nil
}

// Iterate calls yield for every row in append order: the spilled prefix is
// streamed back from disk with buffered sequential reads, then the
// in-memory tail. Multiple passes are allowed. Yield errors abort and are
// returned as-is.
func (b *RowBuffer) Iterate(yield func(rel.Tuple) error) error {
	if b.diskErr != nil {
		return b.diskErr
	}
	if b.spilled > 0 {
		if err := b.bw.Flush(); err != nil {
			b.diskErr = err
			return err
		}
		f, err := os.Open(b.f.Name())
		if err != nil {
			b.diskErr = err
			return err
		}
		defer f.Close()
		NoteSpillLoad()
		br := bufio.NewReaderSize(f, 256<<10)
		// Header frame first, then rows.
		if _, _, err := readFrame(br); err != nil {
			b.diskErr = fmt.Errorf("store: spill file header: %w", err)
			return b.diskErr
		}
		seen := 0
		for seen < b.spilled {
			payload, _, err := readFrame(br)
			if err != nil {
				if errors.Is(err, io.EOF) {
					err = io.ErrUnexpectedEOF
				}
				b.diskErr = fmt.Errorf("store: spill file: %w", err)
				return b.diskErr
			}
			t, err := decodeTuple(payload)
			if err != nil {
				b.diskErr = fmt.Errorf("store: spill file: %w", err)
				return b.diskErr
			}
			seen++
			if err := yield(t); err != nil {
				return err
			}
		}
	}
	for _, t := range b.rows {
		if err := yield(t); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the spill file (if any). The buffer must not be used
// afterwards.
func (b *RowBuffer) Close() error {
	if b.f == nil {
		return nil
	}
	name := b.f.Name()
	err := b.f.Close()
	if rerr := os.Remove(name); err == nil {
		err = rerr
	}
	b.f, b.bw = nil, nil
	return err
}
