package store

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/rel"
	"repro/internal/wire"
)

// Segment frame encoding: every record — the header and each tuple — is one
// length-prefixed, newline-terminated frame
//
//	<decimal payload length> ':' <JSON payload> '\n'
//
// The payload reuses the wire protocol's encoding (a JSON value per frame;
// tuples are the same JSON string arrays wire.Response.Rows carries), and
// the newline framing is read with wire.ReadFrame, inheriting its torn-tail
// semantics exactly: io.EOF only at a clean frame boundary, a partial
// trailing line surfaces as io.ErrUnexpectedEOF. The redundant length
// prefix catches the remaining corruption class newline framing alone
// cannot — a tail whose bytes were garbled but still contain a newline.

// maxSegFrameBytes bounds one segment frame; far above any real tuple, it
// only stops a corrupt length/garbled tail from allocating unbounded memory.
const maxSegFrameBytes = 16 << 20

// appendFrame appends one encoded frame carrying payload to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = strconv.AppendInt(dst, int64(len(payload)), 10)
	dst = append(dst, ':')
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// errBadFrame reports a structurally invalid frame (bad prefix, length
// mismatch, or undecodable payload) — the signature of a torn or garbled
// segment tail.
type errBadFrame struct{ reason string }

func (e errBadFrame) Error() string { return "store: bad segment frame: " + e.reason }

// readFrame reads one frame, returning its payload and the exact number of
// bytes consumed from the stream (prefix, payload and newline — the torn-
// tail truncation offsets are built from this). Errors are io.EOF at a
// clean boundary, io.ErrUnexpectedEOF on a partial trailing line, an
// errBadFrame on structural corruption, or an underlying read error.
func readFrame(br *bufio.Reader) ([]byte, int64, error) {
	line, err := wire.ReadFrame(br, maxSegFrameBytes)
	if err != nil {
		return nil, 0, err
	}
	consumed := int64(len(line)) + 1 // wire.ReadFrame strips the newline
	i := bytes.IndexByte(line, ':')
	if i < 0 {
		return nil, consumed, errBadFrame{"no length prefix"}
	}
	n, perr := strconv.Atoi(string(line[:i]))
	if perr != nil || n < 0 {
		return nil, consumed, errBadFrame{"unparseable length prefix"}
	}
	payload := line[i+1:]
	if len(payload) != n {
		return nil, consumed, errBadFrame{fmt.Sprintf("length prefix %d, payload %d bytes", n, len(payload))}
	}
	return payload, consumed, nil
}

// encodeTuple appends one tuple's frame payload to dst: a JSON string
// array in the wire row encoding, byte for byte what json.Marshal writes.
func encodeTuple(dst []byte, t rel.Tuple) []byte {
	if t == nil {
		// JSON has no distinct encoding for a nil slice; normalize so the
		// empty tuple round-trips.
		t = rel.Tuple{}
	}
	return wire.AppendRow(dst, t)
}

// decodeTuple parses a tuple frame payload exactly as json.Unmarshal would;
// the tuple's values share one string.
func decodeTuple(payload []byte) (rel.Tuple, error) {
	vals, err := wire.DecodeRow(payload)
	if err != nil {
		return nil, errBadFrame{"tuple payload: " + err.Error()}
	}
	return rel.Tuple(vals), nil
}
