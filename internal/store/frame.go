package store

import (
	"bufio"
	"errors"
	"io"
	"slices"
	"strconv"
)

// Segment frame encoding: every record — the header and each tuple — is one
// length-prefixed frame
//
//	<decimal payload length> ':' <payload> '\n'
//
// A tuple's payload is one row in package rel's row encoding (the wire
// protocol's row encoding too): the stored row the relation's append hook
// is handed, framed as it is, so values are stored byte for byte; the
// header's payload is JSON. A frame is read by its length prefix, never by
// its newline (a value may hold one): the newline after the payload is a
// check byte, which catches a garbled length prefix.

// appendFrame appends one encoded frame carrying payload to dst.
func appendFrame(dst []byte, payload string) []byte {
	dst = strconv.AppendInt(dst, int64(len(payload)), 10)
	dst = append(dst, ':')
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// errBadFrame reports a frame cut short or garbled, or a header that does
// not decode — the signature of a torn segment tail.
var errBadFrame = errors.New("store: torn or garbled segment frame")

// readFrame reads one frame from br, whose stream holds left more bytes,
// into buf, reused across frames. It returns the payload and the exact
// number of bytes the frame took (prefix, payload and newline — the
// torn-tail truncation offsets are built from this). The error is io.EOF
// at a clean frame boundary and errBadFrame otherwise. A frame is never
// read past left, so a garbled length allocates no more than the file
// holds.
func readFrame(br *bufio.Reader, buf []byte, left int64) ([]byte, int64, error) {
	prefix, err := br.ReadSlice(':')
	if err != nil {
		if errors.Is(err, io.EOF) && len(prefix) == 0 {
			return buf, 0, io.EOF
		}
		return buf, 0, errBadFrame
	}
	p := int64(len(prefix))
	n, err := strconv.ParseInt(string(prefix[:p-1]), 10, 64)
	if err != nil || n < 0 || n >= left-p {
		return buf, 0, errBadFrame
	}
	buf = slices.Grow(buf[:0], int(n)+1)[:n+1]
	if _, err := io.ReadFull(br, buf); err != nil || buf[n] != '\n' {
		return buf, 0, errBadFrame
	}
	return buf[:n], p + n + 1, nil
}
