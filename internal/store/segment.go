package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"os"

	"repro/internal/rel"
)

// segMagic identifies the segment format; bumped on incompatible changes.
const segMagic = "pdms-seg1"

// segHeader is the first frame of every segment file: enough to make each
// segment self-describing for recovery. GenLo is the relation's generation
// when the segment was opened, so the segment covers the generation range
// (GenLo, GenLo+tuples] — the ranges of a relation's segments tile its
// insert log exactly, which is what keeps generation-vector cache keys and
// the wire gens piggyback meaningful across restarts. Shard and Shards
// record a partition layout relations no longer have: every segment is
// written with 0 and 1, and recovery rejects any other values.
type segHeader struct {
	Magic  string `json:"magic"`
	Rel    string `json:"rel"`
	Arity  int    `json:"arity"`
	Shard  int    `json:"shard"`
	Shards int    `json:"shards"`
	GenLo  uint64 `json:"genLo"`
}

// segWriter appends frames to one open segment file through a buffered
// writer (sequential appends; Flush pushes to the OS, sync adds an fsync).
type segWriter struct {
	f     *os.File
	bw    *bufio.Writer
	bytes int64 // bytes appended so far, including the header frame
	buf   []byte
	row   []byte // the tuple payload being framed, reused
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
	if err := w.writeFrame(payload); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

func (w *segWriter) writeFrame(payload []byte) error {
	w.buf = appendFrame(w.buf[:0], payload)
	n, err := w.bw.Write(w.buf)
	w.bytes += int64(n)
	return err
}

// appendTuple appends one tuple frame and returns the frame's size.
func (w *segWriter) appendTuple(t rel.Tuple) (int64, error) {
	w.row = encodeTuple(w.row[:0], t)
	before := w.bytes
	if err := w.writeFrame(w.row); err != nil {
		return w.bytes - before, err
	}
	return w.bytes - before, nil
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

// scanSegment reads path frame by frame: onHeader (if non-nil) sees the
// decoded header before any tuple, then apply is called for each decoded
// tuple. The scan stops at the first defect — framing, decoding, or an
// apply error — recording it in segScan.err rather than failing, so the
// caller can apply the torn-tail policy (truncate the final segment, reject
// corruption anywhere else). The returned error is reserved for I/O
// failures and onHeader rejections, which abort recovery outright.
func scanSegment(path string, onHeader func(segHeader) error, apply func(rel.Tuple) error) (segScan, error) {
	f, err := os.Open(path)
	if err != nil {
		return segScan{}, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var sc segScan
	var off int64
	readOne := func() ([]byte, error) {
		payload, consumed, err := readFrame(br)
		off += consumed
		return payload, err
	}
	payload, err := readOne()
	if err != nil {
		if errors.Is(err, io.EOF) {
			// Zero-length file: a crash between file creation and the
			// header flush.
			sc.err = io.ErrUnexpectedEOF
		} else {
			sc.err = err
		}
		return sc, nil
	}
	if err := json.Unmarshal(payload, &sc.hdr); err != nil || sc.hdr.Magic != segMagic {
		sc.err = errBadFrame{"invalid segment header"}
		return sc, nil
	}
	sc.hdrOK = true
	sc.goodBytes = off
	if onHeader != nil {
		if err := onHeader(sc.hdr); err != nil {
			return sc, err
		}
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
		t, err := decodeTuple(payload)
		if err != nil {
			sc.err = err
			return sc, nil
		}
		if err := apply(t); err != nil {
			sc.err = err
			return sc, nil
		}
		sc.tuples++
		sc.goodBytes = off
	}
}
