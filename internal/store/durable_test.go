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

// relsEqual asserts b is bit-identical to a: same tuples, same per-shard
// log order, same per-shard generations and sizes.
func relsEqual(t *testing.T, a, b *rel.Relation) {
	t.Helper()
	if a.Name() != b.Name() || a.Arity() != b.Arity() || a.NumShards() != b.NumShards() {
		t.Fatalf("shape mismatch: %s/%d x%d vs %s/%d x%d",
			a.Name(), a.Arity(), a.NumShards(), b.Name(), b.Arity(), b.NumShards())
	}
	for s := 0; s < a.NumShards(); s++ {
		if a.ShardVersion(s) != b.ShardVersion(s) {
			t.Fatalf("%s shard %d: generation %d vs %d", a.Name(), s, a.ShardVersion(s), b.ShardVersion(s))
		}
		if a.ShardLen(s) != b.ShardLen(s) {
			t.Fatalf("%s shard %d: %d tuples vs %d", a.Name(), s, a.ShardLen(s), b.ShardLen(s))
		}
		al, bl := a.ShardAddedSince(s, 0), b.ShardAddedSince(s, 0)
		if len(al) != len(bl) {
			t.Fatalf("%s shard %d: log length %d vs %d", a.Name(), s, len(al), len(bl))
		}
		for i := range al {
			if !al[i].Equal(bl[i]) {
				t.Fatalf("%s shard %d log[%d]: %v vs %v", a.Name(), s, i, al[i], bl[i])
			}
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

// fill inserts deterministic pseudo-random tuples and returns the per-
// (pred, shard) insert ledger — the shadow the monotone envelope is checked
// against.
func fill(t *testing.T, ins *rel.Instance, rng *rand.Rand, n int) map[string][][]rel.Tuple {
	t.Helper()
	shadow := map[string][][]rel.Tuple{}
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
			r := ins.Relation(p.name)
			s := r.ShardOfTuple(tup)
			if shadow[p.name] == nil {
				shadow[p.name] = make([][]rel.Tuple, r.NumShards())
			}
			shadow[p.name][s] = append(shadow[p.name][s], tup)
		}
	}
	return shadow
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// A tiny rotation threshold forces several segments per shard.
	d, err := Open(dir, Options{MaxSegmentBytes: 512})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ins, recs, err := d.Recover(4)
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
	got, recs, err := d2.Recover(4)
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
	got3, _, err := d3.Recover(4)
	if err != nil {
		t.Fatalf("recover 2: %v", err)
	}
	insEqual(t, got, got3)
}

// TestArityZeroSurvivesReplay: a tuple of arity 0 lives in shard 0, which
// with two shards is not the shard the empty string hashes to; replay must
// keep it rather than cut its frame as a torn tail.
func TestArityZeroSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	ins, d, _, err := OpenInstance(dir, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Add("flag", rel.Tuple{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	got, d2, recs, err := OpenInstance(dir, 2, nil)
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
	ins, d, _, err := OpenInstance(dir, 2, nil)
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
	got, d2, _, err := OpenInstance(dir, 2, nil)
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

// shardSegments returns the segment paths of one relation shard in
// generation order.
func shardSegments(t *testing.T, root, pred string, shard int) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(root, escapeRel(pred), fmt.Sprintf("s%d-*.seg", shard)))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	sort.Strings(paths) // zero-padded genLo: lexical == numeric
	return paths
}

// TestCrashRecoveryMonotoneEnvelope simulates crashes at randomized points:
// the journal is flushed after every insert, then the victim shard's final
// segment is truncated at an arbitrary byte offset. The recovered relation
// must be a per-shard prefix of the shadow ledger — nothing fabricated,
// nothing reordered, no torn tuple resurrected — and recovery must be
// idempotent.
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
			ins, _, err := d.Recover(3)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			d.Attach(ins)
			shadow := fill(t, ins, rng, 120)
			// Crash model: everything written so far reached the OS (the
			// per-insert Flush below), but the process died mid-append —
			// simulated by chopping the tail segment at a random offset.
			if err := d.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			preds := ins.Relations()
			pred := preds[rng.Intn(len(preds))]
			// The victim is a shard that wrote segments: a relation holds
			// at least one tuple, but not necessarily in every shard (an
			// arity-0 relation holds one).
			var victims []int
			for s := range ins.Relation(pred).NumShards() {
				if len(shardSegments(t, dir, pred, s)) > 0 {
					victims = append(victims, s)
				}
			}
			victim := victims[rng.Intn(len(victims))]
			segs := shardSegments(t, dir, pred, victim)
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
			got, _, err := d2.Recover(3)
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
				for s := 0; s < gr.NumShards(); s++ {
					want := shadow[p][s]
					gl := gr.ShardAddedSince(s, 0)
					if len(gl) > len(want) {
						t.Fatalf("%s shard %d: recovered %d tuples, ledger has %d", p, s, len(gl), len(want))
					}
					if p != pred || s != victim {
						if len(gl) != len(want) {
							t.Fatalf("%s shard %d: lost %d tuples outside the crashed shard", p, s, len(want)-len(gl))
						}
					}
					for i := range gl {
						if !gl[i].Equal(want[i]) {
							t.Fatalf("%s shard %d log[%d]: %v, ledger %v (prefix violated)", p, s, i, gl[i], want[i])
						}
					}
					if gr.ShardVersion(s) != uint64(len(gl)) {
						t.Fatalf("%s shard %d: generation %d, log %d", p, s, gr.ShardVersion(s), len(gl))
					}
				}
			}
			// Idempotence: recovering the (now truncated) journal again
			// yields the identical instance.
			d3, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen 2: %v", err)
			}
			got2, _, err := d3.Recover(3)
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
	ins, _, err := d.Recover(1)
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
	segs := shardSegments(t, dir, "edge", 0)
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
	if _, _, err := d2.Recover(1); err == nil {
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
	ins := rel.NewInstanceSharded(1)
	ins.MustAdd("edge", "a", "b")
	d.Attach(ins)
	if _, err := ins.Add("edge", rel.Tuple{"c", "d"}); err == nil {
		t.Fatalf("journal accepted a generation gap")
	}
	if d.Err() == nil {
		t.Fatalf("journal gap did not mark the Dir failed")
	}
}
