package rel

import (
	"slices"
	"strconv"
	"strings"
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

// widen turns a value that starts with 0xfe into one longer than an arena
// chunk, so fuzzed rows reach the own-chunk path.
func widen(v string) string {
	if len(v) > 0 && v[0] == 0xfe {
		return v[1:] + strings.Repeat("w", arenaChunkBytes)
	}
	return v
}

// FuzzRelationRows judges the row codec and the relation's tables against
// their definitions: every inserted tuple decodes back from a Rows
// snapshot in insertion order, Insert reports a row new exactly when its
// Tuple.Key is, the tuple set keeps answering as it grows, and a Clone
// taken at each group break holds the rows inserted so far and nothing
// either side inserts later.
func FuzzRelationRows(f *testing.F) {
	// Empty strings, NUL, colons and leading digits — bytes of the key
	// encoding itself — and a repeated row.
	f.Add(encodeGroups(3,
		[]Tuple{{"", "", ""}, {"\x00", ":", "1:"}, {"12:ab", "3", "0:"}},
		[]Tuple{{"\x00", ":", "1:"}, {"1", "2:ab", "3"}, {":::", "", "9"}}))
	// Arity 0: one row at most.
	f.Add(encodeGroups(0, []Tuple{{}, {}}, []Tuple{{}}))
	// Values longer than a chunk, next to short ones.
	f.Add(encodeGroups(2, []Tuple{{"\xfea", "b"}, {"c", "\xfed"}, {"\xfea", "b"}, {"e", "f"}}))
	// Enough rows to grow the tuple set and the chunks several times, with
	// repeats, and clones in between.
	f.Add(encodeGroups(2, seedRows(40, 40, "k"), seedRows(200, 7, "k"), seedRows(300, 300, "x")))

	f.Fuzz(func(t *testing.T, data []byte) {
		groups := decodeGroups(data)
		arity := 0
		if len(data) > 0 {
			arity = int(data[0] % 4)
		}
		ins := NewInstance()
		r := ins.EnsureRelation("r", arity)
		var want []Tuple
		seen := map[string]bool{}
		type clone struct {
			ins  *Instance
			rows int
		}
		var clones []clone
		for g, rows := range groups {
			if g > 0 && len(clones) < 4 {
				clones = append(clones, clone{ins.Clone(), len(want)})
			}
			for _, row := range rows {
				for i := range row {
					row[i] = widen(row[i])
				}
				k := row.Key()
				fresh, err := r.Insert(row)
				if err != nil {
					t.Fatalf("Insert(%q): %v", row, err)
				}
				if fresh == seen[k] {
					t.Fatalf("Insert(%q) = %v after %d rows, want %v", row, fresh, len(want), !seen[k])
				}
				if fresh {
					seen[k] = true
					want = append(want, row)
				}
			}
		}
		same := func(name string, got, want []Tuple) {
			t.Helper()
			if !slices.EqualFunc(got, want, Tuple.Equal) {
				t.Fatalf("%s:\n got %q\nwant %q", name, got, want)
			}
		}
		same("rows in insertion order", insertLog(r), want)
		if r.Len() != len(want) || r.Version() != uint64(len(want)) {
			t.Fatalf("Len %d, Version %d, want %d", r.Len(), r.Version(), len(want))
		}
		for _, row := range want {
			if !r.Contains(row) {
				t.Fatalf("Contains(%q) = false", row)
			}
		}
		sorted := slices.Clone(want)
		SortTuples(sorted)
		same("Tuples", r.Tuples(), sorted)

		// Each clone held the rows inserted before it, takes a row of its
		// own, and neither side sees the other's later rows.
		own := make(Tuple, arity)
		for i := range own {
			own[i] = "\xffclone"
		}
		for _, c := range clones {
			cr := c.ins.Relation("r")
			same("clone's rows", insertLog(cr), want[:c.rows])
			held := slices.ContainsFunc(want[:c.rows], own.Equal)
			if fresh, err := cr.Insert(own); err != nil || fresh == held {
				t.Fatalf("clone Insert(%q) = %v, %v", own, fresh, err)
			}
		}
		same("rows after the clones' inserts", insertLog(r), want)
		if !seen[own.Key()] && r.Contains(own) {
			t.Fatal("a clone's row reached the source")
		}
	})
}
