package store

import (
	"encoding/json"
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
	for _, l := range rs.Locs() {
		t := make(rel.Tuple, r.Arity())
		rel.SplitKey(rs.Key(l), t)
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

// writeSegment writes one well-formed segment file of relation "edge"
// under root, with the given name and header partition fields.
func writeSegment(t *testing.T, root, name string, shard, shards int, genLo uint64, tuples ...rel.Tuple) string {
	t.Helper()
	dir := filepath.Join(root, escapeRel("edge"))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	hdr, err := json.Marshal(segHeader{Magic: segMagic, Rel: "edge", Arity: 2, Shard: shard, Shards: shards, GenLo: genLo})
	if err != nil {
		t.Fatal(err)
	}
	data := appendFrame(nil, hdr)
	for _, tu := range tuples {
		data = appendFrame(data, encodeTuple(nil, tu))
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRecoverRejectsForeignLayout: a journal written with more than one
// partition per relation fails recovery with an error naming the foreign
// file — whether the file's name or its header gives the layout away — and
// the file is left as it was: never skipped, never partly replayed.
func TestRecoverRejectsForeignLayout(t *testing.T) {
	rows := []rel.Tuple{{"a", "b"}, {"c", "d"}}
	for _, tc := range []struct {
		name          string
		file          string
		shard, shards int
	}{
		{"second partition's file", "s1-0000000000000000.seg", 1, 2},
		{"header of two partitions", "s0-0000000000000000.seg", 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			if tc.file != "s0-0000000000000000.seg" {
				// A healthy partition-0 segment beside the foreign one.
				writeSegment(t, root, "s0-0000000000000000.seg", 0, 1, 0, rows...)
			}
			path := writeSegment(t, root, tc.file, tc.shard, tc.shards, 0, rows...)
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			d, err := Open(root, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ins, _, err := d.Recover(0)
			if err == nil {
				t.Fatalf("recovered %v from a foreign layout", ins)
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not name %s", err, path)
			}
			after, err := os.ReadFile(path)
			if err != nil || !slices.Equal(before, after) {
				t.Fatalf("recovery altered the foreign segment (%v)", err)
			}
		})
	}
}

// journalFixture replays the insert sequence that wrote
// testdata/journal, a one-partition journal committed before relations
// lost their hash partitions: 200-byte segments, so edge and label.of span
// several of them.
func journalFixture(ins *rel.Instance) {
	for i := 0; i < 40; i++ {
		ins.MustAdd("edge", fmt.Sprintf("n%02d", (i*7)%40), fmt.Sprintf("n%02d", i))
		if i%3 == 0 {
			ins.MustAdd("label.of", fmt.Sprintf("n%02d", i), "kind", fmt.Sprintf("v%d", i%5))
		}
	}
	ins.MustAdd("flag")
}

// TestCommittedJournalReplays: the committed one-partition journal
// replays to the tuples, log order and generations of the insert sequence
// that wrote it, and the same sequence journaled now writes the same files
// byte for byte.
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
	files := func(root string) map[string]string {
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
	if a, b := files(fixture), files(fresh); !reflect.DeepEqual(a, b) {
		t.Fatalf("journaling the fixture's inserts wrote %d files that differ from the committed %d", len(b), len(a))
	}
}
