package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/rel"
)

// insertLog decodes r's rows in insertion order.
func insertLog(r *rel.Relation) []rel.Tuple {
	rs := r.Rows()
	out := make([]rel.Tuple, 0, rs.Len())
	for _, l := range rs.Since(0) {
		t := make(rel.Tuple, r.Arity())
		rel.SplitRow(rs.Key(l), t)
		out = append(out, t)
	}
	return out
}

// relsEqual asserts b is bit-identical to a: same tuples, same log order,
// same generation and size.
func relsEqual(t *testing.T, a, b *rel.Relation) {
	t.Helper()
	if a.Name() != b.Name() || a.Arity() != b.Arity() {
		t.Fatalf("shape mismatch: %s/%d vs %s/%d", a.Name(), a.Arity(), b.Name(), b.Arity())
	}
	if a.Version() != b.Version() {
		t.Fatalf("%s: generation %d vs %d", a.Name(), a.Version(), b.Version())
	}
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d tuples vs %d", a.Name(), a.Len(), b.Len())
	}
	al, bl := insertLog(a), insertLog(b)
	if len(al) != len(bl) {
		t.Fatalf("%s: log length %d vs %d", a.Name(), len(al), len(bl))
	}
	for i := range al {
		if !al[i].Equal(bl[i]) {
			t.Fatalf("%s log[%d]: %v vs %v", a.Name(), i, al[i], bl[i])
		}
	}
}

func insEqual(t *testing.T, a, b *rel.Instance) {
	t.Helper()
	if !reflect.DeepEqual(a.Relations(), b.Relations()) {
		t.Fatalf("relation sets differ: %v vs %v", a.Relations(), b.Relations())
	}
	for _, pred := range a.Relations() {
		relsEqual(t, a.Relation(pred), b.Relation(pred))
	}
	if a.String() != b.String() {
		t.Fatalf("rendered instances differ")
	}
}

// fill inserts deterministic pseudo-random tuples and returns the
// per-relation insert ledger — the shadow the monotone envelope is checked
// against.
func fill(t *testing.T, ins *rel.Instance, rng *rand.Rand, n int) map[string][]rel.Tuple {
	t.Helper()
	shadow := map[string][]rel.Tuple{}
	preds := []struct {
		name  string
		arity int
	}{{"edge", 2}, {"label.of", 3}, {"node", 1}, {"flag", 0}}
	for i := 0; i < n; i++ {
		p := preds[rng.Intn(len(preds))]
		tup := make(rel.Tuple, p.arity)
		for c := range tup {
			tup[c] = fmt.Sprintf("v%d", rng.Intn(n/2+2))
		}
		added, err := ins.Add(p.name, tup)
		if err != nil {
			t.Fatalf("add: %v", err)
		}
		if added {
			shadow[p.name] = append(shadow[p.name], tup)
		}
	}
	return shadow
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// A tiny rotation threshold forces several segments per relation.
	d, err := Open(dir, Options{MaxSegmentBytes: 512})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ins, recs, err := d.Recover(0)
	if err != nil {
		t.Fatalf("recover empty: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("recovered %d relations from empty dir", len(recs))
	}
	d.Attach(ins)
	rng := rand.New(rand.NewSource(1))
	fill(t, ins, rng, 500)
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	d2, err := Open(dir, Options{MaxSegmentBytes: 512})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, recs, err := d2.Recover(0)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	insEqual(t, ins, got)
	var total int
	for _, rec := range recs {
		total += rec.Tuples
		if rec.Gen != got.Relation(rec.Pred).Version() {
			t.Fatalf("%s: reported gen %d, relation at %d", rec.Pred, rec.Gen, got.Relation(rec.Pred).Version())
		}
		if rec.TruncatedBytes != 0 {
			t.Fatalf("%s: unexpected truncation of a cleanly-closed journal", rec.Pred)
		}
	}
	if total != ins.Size() {
		t.Fatalf("recovered %d tuples, want %d", total, ins.Size())
	}

	// The journal keeps accepting inserts after recovery, and a third
	// recovery sees them.
	d2.Attach(got)
	got.MustAdd("edge", "zz", "ww")
	if err := d2.Close(); err != nil {
		t.Fatalf("close 2: %v", err)
	}
	d3, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen 2: %v", err)
	}
	got3, _, err := d3.Recover(0)
	if err != nil {
		t.Fatalf("recover 2: %v", err)
	}
	insEqual(t, got, got3)
}

// TestArityZeroSurvivesReplay: the one tuple of an arity-0 relation
// journals as an empty frame payload; replay must keep it rather than cut
// its frame as a torn tail.
func TestArityZeroSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	ins, d, _, err := OpenInstance(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Add("flag", rel.Tuple{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	got, d2, recs, err := OpenInstance(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if r := got.Relation("flag"); r == nil || r.Len() != 1 {
		t.Fatalf("recovered %v (%+v), want flag with its one tuple", got.Relations(), recs)
	}
}

// TestArenaRowsRoundTrip: rows the relation copied into its arenas —
// empty values, NUL bytes, a value larger than an arena chunk — journal
// and replay byte for byte, even after the caller rewrote the rows it
// inserted.
func TestArenaRowsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ins, d, _, err := OpenInstance(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []rel.Tuple{
		{"", ""},
		{"a\x00b", "\x00"},
		{strings.Repeat("big", 30_000), "x"},
		{"k", strings.Repeat("\x00", 300)},
	}
	for _, w := range want {
		row := slices.Clone(w)
		if _, err := ins.Add("r", row); err != nil {
			t.Fatal(err)
		}
		row[0], row[1] = "rewritten", "rewritten"
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	got, d2, _, err := OpenInstance(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	insEqual(t, ins, got)
	rel.SortTuples(want)
	if rows := got.Relation("r").Tuples(); !slices.EqualFunc(rows, want, rel.Tuple.Equal) {
		t.Fatalf("replayed %q, want %q", rows, want)
	}
}

// relSegments returns the segment paths of one relation in generation
// order.
func relSegments(t *testing.T, root, pred string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(root, escapeRel(pred), "*.seg"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	sort.Strings(paths) // zero-padded genLo: lexical == numeric
	return paths
}

// TestCrashRecoveryMonotoneEnvelope simulates crashes at randomized points:
// the journal is flushed, then the victim relation's final segment is
// truncated at an arbitrary byte offset. Every recovered relation must be
// a prefix of the shadow ledger — nothing fabricated, nothing reordered,
// no torn tuple resurrected — the relations not crashed must be whole, and
// recovery must be idempotent.
func TestCrashRecoveryMonotoneEnvelope(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			dir := t.TempDir()
			d, err := Open(dir, Options{MaxSegmentBytes: 256})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			ins, _, err := d.Recover(0)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			d.Attach(ins)
			shadow := fill(t, ins, rng, 120)
			// Crash model: everything written so far reached the OS (the
			// Flush below), but the process died mid-append — simulated by
			// chopping the tail segment at a random offset.
			if err := d.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			preds := ins.Relations()
			victim := preds[rng.Intn(len(preds))]
			segs := relSegments(t, dir, victim)
			last := segs[len(segs)-1]
			fi, err := os.Stat(last)
			if err != nil {
				t.Fatalf("stat: %v", err)
			}
			cut := rng.Int63n(fi.Size() + 1)
			if err := os.Truncate(last, cut); err != nil {
				t.Fatalf("truncate: %v", err)
			}

			d2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			got, _, err := d2.Recover(0)
			if err != nil {
				t.Fatalf("recover after crash: %v", err)
			}
			for _, p := range ins.Relations() {
				gr := got.Relation(p)
				if gr == nil {
					// The whole relation may vanish only if it had a single
					// segment whose header was cut.
					continue
				}
				want := shadow[p]
				gl := insertLog(gr)
				if len(gl) > len(want) {
					t.Fatalf("%s: recovered %d tuples, ledger has %d", p, len(gl), len(want))
				}
				if p != victim && len(gl) != len(want) {
					t.Fatalf("%s: lost %d tuples outside the crashed relation", p, len(want)-len(gl))
				}
				for i := range gl {
					if !gl[i].Equal(want[i]) {
						t.Fatalf("%s log[%d]: %v, ledger %v (prefix violated)", p, i, gl[i], want[i])
					}
				}
				if gr.Version() != uint64(len(gl)) {
					t.Fatalf("%s: generation %d, log %d", p, gr.Version(), len(gl))
				}
			}
			// Idempotence: recovering the (now truncated) journal again
			// yields the identical instance.
			d3, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen 2: %v", err)
			}
			got2, _, err := d3.Recover(0)
			if err != nil {
				t.Fatalf("re-recover: %v", err)
			}
			insEqual(t, got, got2)
		})
	}
}

func TestRecoverRejectsMidJournalCorruption(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{MaxSegmentBytes: 256})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ins, _, err := d.Recover(0)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	d.Attach(ins)
	for i := 0; i < 64; i++ {
		ins.MustAdd("edge", fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segs := relSegments(t, dir, "edge")
	if len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %d", len(segs))
	}
	// Garble the middle of the FIRST segment: corruption before the journal
	// tail is outside the crash model and must fail recovery, not silently
	// drop acknowledged tuples.
	f, err := os.OpenFile(segs[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open seg: %v", err)
	}
	if _, err := f.WriteAt([]byte("XXXX"), 40); err != nil {
		t.Fatalf("garble: %v", err)
	}
	f.Close()
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, _, err := d2.Recover(0); err == nil {
		t.Fatalf("recovery accepted mid-journal corruption")
	}
}

func TestJournalGapDetected(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Attach an instance that already holds un-journaled data: the next
	// insert must fail loudly instead of writing a gapped journal.
	ins := rel.NewInstance()
	ins.MustAdd("edge", "a", "b")
	d.Attach(ins)
	if _, err := ins.Add("edge", rel.Tuple{"c", "d"}); err == nil {
		t.Fatalf("journal accepted a generation gap")
	}
	if d.Err() == nil {
		t.Fatalf("journal gap did not mark the Dir failed")
	}
}

// nonCanonicalPayloads are tuple-frame payloads of a relation of arity 2
// that are not exactly one shortest-form row of that arity; the first two
// spell the tuple (a, b) with a longer uvarint than it needs.
var nonCanonicalPayloads = []struct{ name, payload string }{
	{"non-shortest arity", "\x82\x00\x01a\x01b"},
	{"non-shortest value length", "\x02\x81\x00a\x01b"},
	{"two rows", "\x02\x01c\x01d\x02\x01e\x01f"},
	{"wrong arity", "\x03\x01c\x01d\x01e"},
	{"trailing bytes", "\x02\x01c\x01dz"},
}

// TestReplayTakesOnlyCanonicalRows: a tuple frame whose payload is not
// exactly one canonical row of the header's arity is a garbled frame. In
// the final segment recovery cuts it as a torn tail, keeping only the
// rows before it; in an earlier segment it fails recovery. No such payload
// becomes a stored row, so (a, b) never enters the tuple set twice.
func TestReplayTakesOnlyCanonicalRows(t *testing.T) {
	for _, c := range nonCanonicalPayloads {
		t.Run(c.name, func(t *testing.T) {
			good := segmentBytes(2, rel.Tuple{"a", "b"})
			seg := appendFrame(appendFrame(slices.Clone(good), c.payload), rel.Tuple{"g", "h"}.Key())

			root := t.TempDir()
			path := writeSegment(t, root, segFileName(0), seg)
			d, err := Open(root, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ins, recs, err := d.Recover(0)
			if err != nil {
				t.Fatalf("final segment: %v", err)
			}
			if got := insertLog(ins.Relation("edge")); !slices.EqualFunc(got, []rel.Tuple{{"a", "b"}}, rel.Tuple.Equal) {
				t.Fatalf("final segment replayed %q, want only (a, b)", got)
			}
			if after, err := os.ReadFile(path); err != nil || string(after) != string(good) || recs[0].TruncatedBytes == 0 {
				t.Fatalf("final segment not cut back to its last canonical row (%v, %+v)", err, recs)
			}

			root = t.TempDir()
			writeSegment(t, root, segFileName(0), seg)
			writeSegment(t, root, segFileName(1), segmentBytes(2))
			if d, err = Open(root, Options{}); err != nil {
				t.Fatal(err)
			}
			if ins, _, err := d.Recover(0); err == nil {
				t.Fatalf("an earlier segment's garbled frame recovered %v", ins)
			}
		})
	}
}

// writeSegment writes one segment file of relation "edge" under root,
// with the given name, holding data.
func writeSegment(t *testing.T, root, name string, data []byte) string {
	t.Helper()
	dir := filepath.Join(root, escapeRel("edge"))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// seg1Bytes is a segment of "edge" in the pdms-seg1 format: a header with
// the partition fields, and its tuples as JSON string arrays.
const seg1Bytes = "75:{\"magic\":\"pdms-seg1\",\"rel\":\"edge\",\"arity\":2,\"shard\":0,\"shards\":1,\"genLo\":0}\n" +
	"9:[\"a\",\"b\"]\n9:[\"c\",\"d\"]\n"

// TestRecoverRejectsForeignLayout: a segment written in an earlier layout
// fails recovery with an error naming the file — a pdms-seg1 segment,
// final or not, and a file of a second partition — and the file is left
// as it was: never skipped, never partly replayed, never cut as a torn
// tail.
func TestRecoverRejectsForeignLayout(t *testing.T) {
	seg2 := segmentBytes(2, rel.Tuple{"a", "b"}, rel.Tuple{"c", "d"})
	for _, tc := range []struct {
		name string
		file string
		want []string
	}{
		{"second partition's file", "s1-0000000000000000.seg", []string{"s0-<generation>.seg"}},
		{"header of two partitions", "s0-0000000000000000.seg", []string{seg1Magic, segMagic}},
		{"final pdms-seg1 segment", "s0-0000000000000002.seg", []string{seg1Magic, segMagic}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			if tc.file != "s0-0000000000000000.seg" {
				// A healthy first segment beside the foreign one.
				writeSegment(t, root, "s0-0000000000000000.seg", seg2)
			}
			path := writeSegment(t, root, tc.file, []byte(seg1Bytes))
			d, err := Open(root, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ins, _, err := d.Recover(0)
			if err == nil {
				t.Fatalf("recovered %v from a foreign layout", ins)
			}
			for _, w := range append(tc.want, path) {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("error %q does not name %s", err, w)
				}
			}
			after, err := os.ReadFile(path)
			if err != nil || string(after) != seg1Bytes {
				t.Fatalf("recovery altered the foreign segment (%v)", err)
			}
		})
	}
}

// journalFiles reads every file under root, by path relative to it.
func journalFiles(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		name, _ := filepath.Rel(root, path)
		out[name] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCommittedSeg1JournalRejected: testdata/journal-seg1, the journal
// the pdms-seg1 format wrote for journalFixture's inserts, fails recovery
// with an error naming a segment and both formats, and every file is left
// byte for byte as it was.
func TestCommittedSeg1JournalRejected(t *testing.T) {
	root := t.TempDir()
	if err := os.CopyFS(root, os.DirFS(filepath.Join("testdata", "journal-seg1"))); err != nil {
		t.Fatal(err)
	}
	before := journalFiles(t, root)
	d, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins, _, err := d.Recover(0)
	if err == nil {
		t.Fatalf("recovered %v from a pdms-seg1 journal", ins)
	}
	if msg := err.Error(); !strings.Contains(msg, root) || !strings.Contains(msg, ".seg") || !strings.Contains(msg, seg1Magic) || !strings.Contains(msg, segMagic) {
		t.Fatalf("error %q does not name the segment and both formats", err)
	}
	if after := journalFiles(t, root); !reflect.DeepEqual(before, after) {
		t.Fatal("recovery altered the pdms-seg1 journal")
	}
}

// journalFixture replays the insert sequence that wrote testdata/journal
// (and, in the pdms-seg1 format, testdata/journal-seg1): 200-byte
// segments, so edge and label.of span several of them.
func journalFixture(ins *rel.Instance) {
	for i := 0; i < 40; i++ {
		ins.MustAdd("edge", fmt.Sprintf("n%02d", (i*7)%40), fmt.Sprintf("n%02d", i))
		if i%3 == 0 {
			ins.MustAdd("label.of", fmt.Sprintf("n%02d", i), "kind", fmt.Sprintf("v%d", i%5))
		}
	}
	ins.MustAdd("flag")
}

// TestCommittedJournalReplays: the committed journal replays to the
// tuples, log order and generations of the insert sequence that wrote it,
// and the same sequence journaled now writes the same files byte for byte.
func TestCommittedJournalReplays(t *testing.T) {
	fixture := filepath.Join("testdata", "journal")
	root := t.TempDir()
	if err := os.CopyFS(root, os.DirFS(fixture)); err != nil {
		t.Fatal(err)
	}
	d, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, recs, err := d.Recover(0)
	if err != nil {
		t.Fatalf("recover the committed journal: %v", err)
	}
	want := rel.NewInstance()
	journalFixture(want)
	insEqual(t, want, got)
	for _, rec := range recs {
		if rec.TruncatedBytes != 0 || rec.Gen != want.Relation(rec.Pred).Version() {
			t.Fatalf("%s: %+v, want generation %d and nothing truncated", rec.Pred, rec, want.Relation(rec.Pred).Version())
		}
	}

	fresh := t.TempDir()
	d2, err := Open(fresh, Options{MaxSegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	ins, _, err := d2.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	d2.Attach(ins)
	journalFixture(ins)
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if a, b := journalFiles(t, fixture), journalFiles(t, fresh); !reflect.DeepEqual(a, b) {
		t.Fatalf("journaling the fixture's inserts wrote %d files that differ from the committed %d", len(b), len(a))
	}
}
