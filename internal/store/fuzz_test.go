package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rel"
)

// validSegmentBytes builds a well-formed segment of an arity-2 relation
// for seeding the fuzzer.
func validSegmentBytes(tuples ...rel.Tuple) []byte {
	return segmentBytes(2, 1, tuples...)
}

// segmentBytes builds a segment of a relation with the given arity whose
// header records the given partition count (1 is the only count recovery
// accepts).
func segmentBytes(arity, shards int, tuples ...rel.Tuple) []byte {
	hdr, _ := json.Marshal(segHeader{Magic: segMagic, Rel: "edge", Arity: arity, Shard: 0, Shards: shards, GenLo: 0})
	out := appendFrame(nil, hdr)
	for _, t := range tuples {
		out = appendFrame(out, encodeTuple(nil, t))
	}
	return out
}

// FuzzSegmentReplay feeds arbitrary bytes to recovery as the content of a
// relation's only (and therefore final) segment. Whatever the bytes — truncated
// tails, garbled frames, duplicated tuples, hostile headers — recovery must
// either succeed or fail cleanly: no panic, and on success a second recovery
// of the (post-truncation) directory must reproduce the identical instance,
// so no torn tuple is ever resurrected.
func FuzzSegmentReplay(f *testing.F) {
	whole := validSegmentBytes(rel.Tuple{"a", "b"}, rel.Tuple{"c", "d"}, rel.Tuple{"e", "f"})
	f.Add(whole)
	f.Add(whole[:len(whole)-4])            // torn mid-frame
	f.Add(append([]byte("12:"), whole...)) // garbled prefix
	dup := validSegmentBytes(rel.Tuple{"a", "b"}, rel.Tuple{"a", "b"})
	f.Add(dup) // duplicated tail tuple
	f.Add([]byte{})
	f.Add([]byte("9:{\"bad\":1}\n"))
	// Arity 0: the one tuple is an empty payload. A header of two
	// partitions is a foreign layout, which recovery must reject.
	f.Add(segmentBytes(0, 1, rel.Tuple{}))
	f.Add(segmentBytes(0, 2, rel.Tuple{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		segDir := filepath.Join(dir, escapeRel("edge"))
		if err := os.MkdirAll(segDir, 0o755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := os.WriteFile(filepath.Join(segDir, segFileName(0)), data, 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		d, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		ins, recs, err := d.Recover(0)
		if err != nil {
			return // clean rejection is a valid outcome
		}
		for _, rec := range recs {
			r := ins.Relation(rec.Pred)
			if r == nil {
				t.Fatalf("recovery reported %q but the instance lacks it", rec.Pred)
			}
			if r.Version() != rec.Gen || rec.Tuples != r.Len() {
				t.Fatalf("recovery report disagrees with the instance: %+v vs gen %d len %d", rec, r.Version(), r.Len())
			}
		}
		// Idempotence / no-resurrection: the truncated-on-disk journal must
		// recover to the same instance again.
		d2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		ins2, _, err := d2.Recover(0)
		if err != nil {
			t.Fatalf("recovery accepted the journal once but not twice: %v", err)
		}
		if ins.String() != ins2.String() {
			t.Fatalf("re-recovery diverged:\n%s\nvs\n%s", ins, ins2)
		}
		for _, pred := range ins.Relations() {
			if ins.Relation(pred).Version() != ins2.Relation(pred).Version() {
				t.Fatalf("%s generation diverged on re-recovery", pred)
			}
		}
	})
}
