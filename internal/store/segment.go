package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// segMagic identifies the segment format; bumped on incompatible changes.
// seg1Magic is the format before tuples became row blocks (they were JSON
// string arrays): recovery refuses such a segment, naming it, rather than
// read it or cut it as a torn tail.
const (
	segMagic  = "pdms-seg2"
	seg1Magic = "pdms-seg1"
)

// segHeader is the first frame of every segment file: enough to make each
// segment self-describing for recovery. GenLo is the relation's generation
// when the segment was opened, so the segment covers the generation range
// (GenLo, GenLo+tuples] — the ranges of a relation's segments tile its
// insert log exactly, which is what keeps generation-vector cache keys and
// the wire gens piggyback meaningful across restarts.
type segHeader struct {
	Magic string `json:"magic"`
	Rel   string `json:"rel"`
	Arity int    `json:"arity"`
	GenLo uint64 `json:"genLo"`
}

// segWriter appends frames to one open segment file through a buffered
// writer (sequential appends; Flush pushes to the OS, sync adds an fsync).
type segWriter struct {
	f     *os.File
	bw    *bufio.Writer
	bytes int64 // bytes appended so far, including the header frame
	buf   []byte
}

// createSegment creates path (which must not exist) and writes its header.
func createSegment(path string, h segHeader) (*segWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	w := &segWriter{f: f, bw: bufio.NewWriter(f)}
	payload, err := json.Marshal(h)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := w.writeFrame(string(payload)); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

func (w *segWriter) writeFrame(payload string) error {
	w.buf = appendFrame(w.buf[:0], payload)
	n, err := w.bw.Write(w.buf)
	w.bytes += int64(n)
	return err
}

func (w *segWriter) flush() error { return w.bw.Flush() }

// sync flushes buffered frames and fsyncs the file.
func (w *segWriter) sync() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// close syncs and closes the file.
func (w *segWriter) close() error {
	serr := w.sync()
	cerr := w.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// segScan is the outcome of scanning one segment file.
type segScan struct {
	hdr segHeader
	// hdrOK reports whether a valid header frame was read; when false the
	// file contributes nothing and goodBytes is 0.
	hdrOK bool
	// tuples counts the tuple frames applied.
	tuples int
	// goodBytes is the offset just past the last fully-valid, applied
	// frame — the truncation point when the tail is torn.
	goodBytes int64
	// err is the first defect found (nil for a clean scan to EOF): a torn
	// or garbled frame, or an apply rejection. Frames past it are ignored.
	err error
}

// scanSegment reads path frame by frame: onHeader sees the decoded header
// before any tuple, then apply is called with each tuple frame's payload,
// valid only during the call, which apply must check is one row of the
// header's arity (rel.Relation.InsertRow does). The scan stops at the
// first defect — framing, a payload apply refuses, or any other apply
// error — recording it in segScan.err rather than failing, so the caller
// can apply the torn-tail policy (truncate the final segment, reject
// corruption anywhere else). The returned error is reserved for I/O failures, a
// pdms-seg1 header and onHeader rejections, which abort recovery outright.
func scanSegment(path string, onHeader func(segHeader) error, apply func(row []byte) error) (segScan, error) {
	f, err := os.Open(path)
	if err != nil {
		return segScan{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return segScan{}, err
	}
	br := bufio.NewReaderSize(f, 1<<20)
	var sc segScan
	var off int64
	var buf []byte
	readOne := func() ([]byte, error) {
		payload, n, err := readFrame(br, buf, fi.Size()-off)
		buf = payload
		off += n
		return payload, err
	}
	payload, err := readOne()
	if err == nil {
		err = json.Unmarshal(payload, &sc.hdr)
	}
	if err != nil || sc.hdr.Magic != segMagic {
		if err == nil && sc.hdr.Magic == seg1Magic {
			return sc, fmt.Errorf("store: segment %s is in the %s format, which this journal no longer reads; it writes and reads %s", path, seg1Magic, segMagic)
		}
		// A zero-length file is a crash between file creation and the
		// header flush.
		sc.err = errBadFrame
		return sc, nil
	}
	sc.hdrOK = true
	sc.goodBytes = off
	if err := onHeader(sc.hdr); err != nil {
		return sc, err
	}
	for {
		payload, err := readOne()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return sc, nil // clean end
			}
			sc.err = err
			return sc, nil
		}
		if err := apply(payload); err != nil {
			sc.err = err
			return sc, nil
		}
		sc.tuples++
		sc.goodBytes = off
	}
}
