package rel

import (
	"slices"
	"strconv"
	"testing"
)

// groupBreak, at the start of a row, ends the current group.
const groupBreak = 0xff

// decodeGroups turns fuzz input into tuple groups of one arity. The first
// byte picks the arity (0–3). The rest is a run of rows: each row opens
// with a control byte — groupBreak starts a new group, anything else
// starts a row — and carries one value per column, a length byte and that
// many bytes (cut short at the end of the input).
func decodeGroups(data []byte) [][]Tuple {
	if len(data) == 0 {
		return nil
	}
	arity := int(data[0] % 4)
	data = data[1:]
	groups := [][]Tuple{nil}
	for len(data) > 0 {
		c := data[0]
		data = data[1:]
		if c == groupBreak {
			groups = append(groups, nil)
			continue
		}
		t := make(Tuple, arity)
		for i := range t {
			if len(data) == 0 {
				break
			}
			n := min(int(data[0]), len(data)-1)
			t[i] = string(data[1 : 1+n])
			data = data[1+n:]
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], t)
	}
	return groups
}

// encodeGroups is decodeGroups' inverse for seeds: every tuple has the
// given arity and every value is shorter than 256 bytes.
func encodeGroups(arity int, groups ...[]Tuple) []byte {
	data := []byte{byte(arity)}
	for g, ts := range groups {
		if g > 0 {
			data = append(data, groupBreak)
		}
		for _, t := range ts {
			data = append(data, 0)
			for _, v := range t {
				data = append(data, byte(len(v)))
				data = append(data, v...)
			}
		}
	}
	return data
}

// seedRows builds n rows of arity 2 whose column 0 is prefix followed by
// the row's number mod mod, and column 1 the row's number: with mod < n,
// column 0 repeats.
func seedRows(n, mod int, prefix string) []Tuple {
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = Tuple{prefix + strconv.Itoa(i%mod), strconv.Itoa(i)}
	}
	return ts
}

// FuzzSortDistinct judges the sort kernel and every answer-set function
// built on it against their definition: a comparison sort by Compare,
// then adjacent repeats dropped.
func FuzzSortDistinct(f *testing.F) {
	// Empty strings and values that contain NUL.
	f.Add(encodeGroups(2,
		[]Tuple{{"", ""}, {"", "\x00"}, {"\x00", ""}, {"a\x00b", "c"}, {"a", "b\x00c"}},
		[]Tuple{{"", ""}, {"\x00\x00", "\x00"}}))
	// Values that share their first 8 bytes and differ after them, above
	// the radix threshold.
	f.Add(encodeGroups(2, seedRows(radixMinRows+40, 97, "abcdefgh"), seedRows(50, 50, "abcdefg")))
	// Ties only through the padding: "ab" and "ab\x00" share a key.
	pad := seedRows(radixMinRows, radixMinRows, "x")
	pad = append(pad, Tuple{"ab", "1"}, Tuple{"ab\x00", "0"}, Tuple{"ab\x00\x00", ""}, Tuple{"ab", "0"})
	f.Add(encodeGroups(2, pad, []Tuple{{"ab\x00", "0"}}))
	// Arity 0, and groups where every key is equal.
	f.Add(encodeGroups(0, []Tuple{{}, {}}, nil, []Tuple{{}}))
	f.Add(encodeGroups(2, seedRows(radixMinRows+5, 1, "same"), seedRows(radixMinRows, 1, "same")))
	// Groups just below and just above the radix threshold.
	f.Add(encodeGroups(2, seedRows(radixMinRows-1, 200, "k"), seedRows(radixMinRows, 300, "k")))
	f.Add(encodeGroups(1, seedRows(radixMinRows+1, 1000, "")))

	f.Fuzz(func(t *testing.T, data []byte) {
		groups := decodeGroups(data)
		all := slices.Concat(groups...)
		sorted := slices.Clone(all)
		slices.SortFunc(sorted, Compare)
		want := slices.CompactFunc(slices.Clone(sorted), Tuple.Equal)
		same := func(name string, got, want []Tuple) {
			t.Helper()
			if !slices.EqualFunc(got, want, Tuple.Equal) {
				t.Fatalf("%s of %q:\n got %q\nwant %q", name, groups, got, want)
			}
		}

		got := slices.Clone(all)
		SortTuples(got)
		same("SortTuples", got, sorted)
		same("SortDistinct", SortDistinct(slices.Clone(all)), want)
		same("DistinctSorted", DistinctSorted(groups...), want)
		same("DistinctSorted's input", slices.Concat(groups...), all)
		distinct := make([][]Tuple, len(groups))
		for i, g := range groups {
			distinct[i] = SortDistinct(slices.Clone(g))
		}
		same("MergeDistinct", MergeDistinct(distinct...), want)
	})
}
