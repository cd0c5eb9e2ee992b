package rel

import (
	"encoding/binary"
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
// arity in the low two bits of head, the first byte, and every value is
// shorter than 256 bytes.
func encodeGroups(head int, groups ...[]Tuple) []byte {
	data := []byte{byte(head)}
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
	// Runs long enough for MergeDistinct to gallop, each starting on the
	// row the run before it ended on; a gallop bounded by the heap's
	// second child; one group much longer than the others, which repeat
	// its rows at both ends of their runs; and groups taking turns in
	// blocks one row longer than minGallop, sharing their ends.
	f.Add(encodeGroups(1, span(0, 40), span(39, 80), span(79, 120)))
	f.Add(encodeGroups(1, span(0, 20), span(30, 40), span(10, 12)))
	f.Add(encodeGroups(1, span(0, 100), vals(0, 9, 10, 49, 50), vals(4, 5, 98, 99)))
	f.Add(encodeGroups(1,
		slices.Concat(span(0, 5), span(10, 15), span(20, 25)),
		slices.Concat(span(4, 10), span(14, 20), span(24, 30))))

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
// chunk, so fuzzed rows reach the own-chunk path, and one that starts with
// 0xfd into one 2^14 - 1 bytes longer than the rest of it, so a value of
// 1<<14 bytes, the first whose length takes a three-byte uvarint, is one
// byte away. It draws the bytes it adds from *budget and leaves v as it is
// once the budget cannot pay for them, so no input grows by more than its
// starting budget: an input of many such values would otherwise build rows
// of megabytes on every run, and its minimization stall the fuzzer.
func widen(v string, budget *int) string {
	var pad string
	switch {
	case len(v) > 0 && v[0] == 0xfe:
		pad = strings.Repeat("w", arenaChunkBytes)
	case len(v) > 0 && v[0] == 0xfd:
		pad = strings.Repeat("m", 1<<14-1)
	}
	if pad == "" || len(pad) > *budget {
		return v
	}
	*budget -= len(pad)
	return v[1:] + pad
}

// widenBudget is the bytes widen may add to one input: three values longer
// than an arena chunk (the most a seed holds: two long rows and a repeat of
// one), or twelve at the uvarint width boundary.
const widenBudget = 3 * arenaChunkBytes

// spell is t in the row encoding, spelled value by value with
// encoding/binary rather than by AppendRow: what the relation must store
// for t.
func spell(t Tuple) string {
	b := binary.AppendUvarint(nil, uint64(len(t)))
	for _, v := range t {
		b = append(binary.AppendUvarint(b, uint64(len(v))), v...)
	}
	return string(b)
}

// decodeRows decodes the rows of rs at locs.
func decodeRows(rs Rows, arity int, locs []Loc) []Tuple {
	out := make([]Tuple, 0, len(locs))
	for _, l := range locs {
		t := make(Tuple, arity)
		SplitRow(rs.Key(l), t)
		out = append(out, t)
	}
	return out
}

// walkLog decodes rs's rows in walk order.
func walkLog(rs Rows, arity int) []Tuple {
	return decodeRows(rs, arity, slices.Collect(rs.All()))
}

// FuzzRelationRows judges the row codec, the relation's tables and its
// layout against their definitions: every inserted tuple decodes back from
// a Rows snapshot in insertion order, its stored bytes and the bytes the
// append hook is handed are its row-encoding spelling (spell), Insert
// reports a row new exactly when its Tuple.Key is, the tuple set keeps
// answering as it grows, and a Clone taken at each group break holds the
// rows inserted so far and nothing either side inserts later. At one
// group break the relation is laid out by a grouping of its rows
// (LayOut), from a snapshot taken one group earlier, so the rows in
// between are copied as they stand: ids, Version, Contains and Tuples do
// not change, every earlier snapshot and handed-out value still reads the
// same, and the walk yields each group's rows together, in insertion
// order within the group, then the rest.
//
// The first input byte's low two bits are the arity; its high bits pick
// the layout: bits 2–3 the group break at which the snapshot is taken,
// bits 4–5 the number of groups less one (a row's group is its key's byte
// sum modulo the number of groups, so a group may be empty), bits 6–7 the
// most bytes a chunk of the layout's block holds (the 32-bit limit, 1, 16
// or 100).
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
	// Laid out into four groups from the snapshot at the first break, with
	// a block of 16-byte chunks and a row longer than a chunk.
	f.Add(encodeGroups(2|1<<2|3<<4|2<<6, seedRows(30, 9, "k"), seedRows(20, 5, "k"),
		[]Tuple{{"\xfel", "ong"}}, seedRows(10, 10, "t")))
	// Laid out from an empty snapshot, into one group, one row per chunk.
	f.Add(encodeGroups(1|1<<6, seedRows(5, 5, "a"), seedRows(5, 5, "b")))
	// Values at the uvarint width boundaries: 127 and 128 bytes, and
	// (widened) 16,383 and 16,384 bytes.
	f.Add(encodeGroups(2, []Tuple{{strings.Repeat("x", 127), strings.Repeat("y", 128)},
		{"\xfd", "\xfdz"}, {strings.Repeat("y", 128), "\xfd"}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		groups := decodeGroups(data)
		arity, at, ngroups := 0, 0, 1
		chunkMax := uint64(maxBlockChunk)
		if len(data) > 0 {
			arity = int(data[0] % 4)
			at = int(data[0] >> 2 & 3)
			ngroups = int(data[0]>>4&3) + 1
			chunkMax = []uint64{maxBlockChunk, 1, 16, 100}[data[0]>>6]
		}
		grp := func(row Tuple) uint32 {
			sum := 0
			for _, b := range []byte(row.Key()) {
				sum += int(b)
			}
			return uint32(sum % ngroups)
		}
		ins := NewInstance()
		r := ins.EnsureRelation("r", arity)
		var hooked []string
		r.SetAppendHook(func(row string, _ uint64) error {
			hooked = append(hooked, row)
			return nil
		})
		var want []Tuple
		seen := map[string]bool{}
		type clone struct {
			ins  *Instance
			rows int
			laid bool
		}
		var clones []clone
		type snapshot struct {
			rs   Rows
			rows int
		}
		var snaps []snapshot
		// The layout: the snapshot it is placed from (an index into snaps),
		// the values Tuples handed out before it, and how many rows it laid
		// out.
		from := -1
		var before, beforeCopy []Tuple
		laidRows := -1
		layOut := func() {
			t.Helper()
			before = r.Tuples()
			beforeCopy = make([]Tuple, len(before))
			for i, row := range before {
				beforeCopy[i] = make(Tuple, len(row))
				for j, v := range row {
					beforeCopy[i][j] = strings.Clone(v)
				}
			}
			src := snaps[from]
			group := make([]uint32, src.rs.Len())
			counts := make([]int, ngroups)
			for id, row := range want[:src.rows] {
				group[id] = grp(row)
				counts[group[id]]++
			}
			rs, ok := r.layOut(src.rs, group, counts, chunkMax)
			if !ok || !rs.LaidOut() || !r.Rows().LaidOut() {
				t.Fatalf("LayOut = %v, laid out %v %v", ok, rs.LaidOut(), r.Rows().LaidOut())
			}
			for l := range rs.All() {
				if l.off > 0 && uint64(l.off)+uint64(l.n) > chunkMax {
					t.Fatalf("a row ends at byte %d of its block chunk, past the %d-byte cap", l.off+l.n, chunkMax)
				}
			}
			if _, again := r.LayOut(rs, make([]uint32, rs.Len()), []int{rs.Len()}); again {
				t.Fatal("a second LayOut ran")
			}
			laidRows = src.rows
		}
		budget := widenBudget
		for g, rows := range groups {
			if g == at+1 {
				layOut()
			}
			if g > 0 && len(clones) < 4 {
				clones = append(clones, clone{ins.Clone(), len(want), laidRows >= 0})
			}
			snaps = append(snaps, snapshot{r.Rows(), len(want)})
			if g == at {
				from = len(snaps) - 1
			}
			for _, row := range rows {
				for i := range row {
					row[i] = widen(row[i], &budget)
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
		if laidRows < 0 {
			if from < 0 {
				snaps = append(snaps, snapshot{r.Rows(), len(want)})
				from = len(snaps) - 1
			}
			layOut()
		}
		same := func(name string, got, want []Tuple) {
			t.Helper()
			if !slices.EqualFunc(got, want, Tuple.Equal) {
				t.Fatalf("%s:\n got %q\nwant %q", name, got, want)
			}
		}
		// walked is the walk of the first n rows: before the layout,
		// insertion order; after it, the laid-out rows group by group, then
		// the rest.
		walked := func(n int, laid bool) []Tuple {
			if !laid {
				return want[:n]
			}
			var out []Tuple
			for g := range ngroups {
				for _, row := range want[:laidRows] {
					if grp(row) == uint32(g) {
						out = append(out, row)
					}
				}
			}
			return append(out, want[laidRows:n]...)
		}
		same("rows in insertion order", insertLog(r), want)
		if len(hooked) != len(want) {
			t.Fatalf("the append hook saw %d rows, want %d", len(hooked), len(want))
		}
		rs := r.Rows()
		for id, l := range rs.Since(0) {
			if w := spell(want[id]); rs.Key(l) != w || hooked[id] != w || want[id].Key() != w {
				t.Fatalf("row %d %q: stored %q, hooked %q, Key %q, want %q", id, want[id], rs.Key(l), hooked[id], want[id].Key(), w)
			}
		}
		same("rows in walk order", walkLog(r.Rows(), arity), walked(len(want), true))
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
		same("values handed out before the layout", before, beforeCopy)
		for _, s := range snaps {
			same("an earlier snapshot's rows by id", decodeRows(s.rs, arity, s.rs.Since(0)), want[:s.rows])
			same("an earlier snapshot's walk", walkLog(s.rs, arity), walked(s.rows, s.rs.LaidOut()))
		}

		// Each clone held the rows inserted before it, takes a row of its
		// own, and neither side sees the other's later rows.
		own := make(Tuple, arity)
		for i := range own {
			own[i] = "\xffclone"
		}
		for _, c := range clones {
			cr := c.ins.Relation("r")
			same("clone's rows", insertLog(cr), want[:c.rows])
			same("clone's walk", walkLog(cr.Rows(), arity), walked(c.rows, c.laid))
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
