package rel

import (
	"encoding/binary"
	"errors"
)

// ErrBadBlock reports bytes that are not a whole number of rows in the
// row encoding.
var ErrBadBlock = errors.New("rel: malformed row block")

// AppendValue appends one value: uvarint(len(v)), then v. A composite key
// of a fixed number of values is their AppendValue encodings one after
// another, so it is collision-free whatever bytes the values hold.
func AppendValue(dst []byte, v string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(v))), v...)
}

// AppendRow appends row: uvarint(len(row)), then each value (AppendValue).
func AppendRow(dst []byte, row []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = AppendValue(dst, v)
	}
	return dst
}

// SplitRow fills dst with the first len(dst) values of row, one row in the
// row encoding that is known to be well formed: a stored row (Rows.Key) or
// a Tuple.Key. The values are substrings of row. It decodes no further
// than dst reaches, and returns the offset in row past the last value it
// decoded.
func SplitRow(row string, dst []string) int {
	_, off := nextUvarint(row, 0)
	for i := range dst {
		var n int
		n, off = nextUvarint(row, off)
		dst[i] = row[off : off+n]
		off += n
	}
	return off
}

// nextUvarint decodes the well-formed uvarint at s[off:] and returns it
// and the offset past it.
func nextUvarint(s string, off int) (int, int) {
	if b := s[off]; b < 0x80 {
		return int(b), off + 1 // most lengths and arities
	}
	var x uint64
	for shift := uint(0); ; shift += 7 {
		b := s[off]
		off++
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return int(x), off
		}
	}
}

// DecodeRows decodes a block that must parse to exactly len(block) bytes,
// with every uvarint in its shortest form, so a block decodes to one list
// of rows and that list encodes back to the same bytes. Every value is a
// substring of one string holding the block, and the rows share one
// []string of values, each row capped at its own end: a block costs three
// allocations however many rows it carries, a retained row keeps the
// whole block's string alive, and no row aliases block.
func DecodeRows(block []byte) ([][]string, error) {
	nrows, nvals := 0, 0
	for i := 0; i < len(block); nrows++ {
		arity, n := rowLen(block[i:])
		if n < 0 {
			return nil, ErrBadBlock
		}
		i += n
		nvals += arity
	}
	s := string(block)
	vals := make([]string, nvals)
	rows := make([][]string, nrows)
	off := 0
	for r := range rows {
		arity, _ := nextUvarint(s, off)
		rows[r], vals = vals[:arity:arity], vals[arity:]
		off += SplitRow(s[off:], rows[r])
	}
	return rows, nil
}

// rowLen checks that b opens with one well-formed row and returns the
// row's arity and length in bytes, or a length of -1.
func rowLen(b []byte) (arity, n int) {
	a, i := uvarint(b)
	// Every value takes at least its length byte.
	if i <= 0 || a > uint64(len(b)-i) {
		return 0, -1
	}
	for range a {
		l, w := uvarint(b[i:])
		if w <= 0 || l > uint64(len(b)-i-w) {
			return 0, -1
		}
		i += w + int(l)
	}
	return int(a), i
}

// uvarint is binary.Uvarint refusing any encoding longer than the
// shortest: a final byte of zero after the first.
func uvarint(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1 // most lengths and arities
	}
	x, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return x, n
}
