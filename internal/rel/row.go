package rel

import (
	"encoding/binary"
	"errors"
	"slices"
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
// substring of one string holding the block — a copy of a []byte block, a
// string block itself — and the rows share one []string of values, each
// row capped at its own end: a block costs three allocations however many
// rows it carries (two for a string), a retained row keeps the whole
// block's string alive, and no row aliases a []byte block.
func DecodeRows[B []byte | string](block B) ([][]string, error) {
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

// DecodeRow decodes row, which must be exactly one row with every uvarint
// in its shortest form, appending its values to dst. The values are
// substrings of row, so a value that holds a nested row decodes without
// a copy.
func DecodeRow(row string, dst []string) ([]string, error) {
	arity, n := rowLen(row)
	if n != len(row) {
		return dst, ErrBadBlock
	}
	start := len(dst)
	dst = slices.Grow(dst, arity)[:start+arity]
	SplitRow(row, dst[start:])
	return dst, nil
}

// rowLen checks that b opens with one well-formed row and returns the
// row's arity and length in bytes, or a length of -1.
func rowLen[B []byte | string](b B) (arity, n int) {
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

// uvarint is binary.Uvarint, over a block's bytes or a value's string,
// refusing any encoding longer than the shortest (a final byte of zero
// after the first) and any that overflows: its length is 0 on every
// failure.
func uvarint[B []byte | string](b B) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1 // most lengths and arities
	}
	var x uint64
	for i := 0; i < len(b) && i < binary.MaxVarintLen64; i++ {
		c := b[i]
		if c < 0x80 {
			if (i > 0 && c == 0) || (i == binary.MaxVarintLen64-1 && c > 1) {
				return 0, 0
			}
			return x | uint64(c)<<(7*i), i + 1
		}
		x |= uint64(c&0x7f) << (7 * i)
	}
	return 0, 0
}
