package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rel"
)

// segmentBytes builds a well-formed segment of "edge", a relation of the
// given arity, for seeding the fuzzer.
func segmentBytes(arity int, tuples ...rel.Tuple) []byte {
	hdr, _ := json.Marshal(segHeader{Magic: segMagic, Rel: "edge", Arity: arity, GenLo: 0})
	out := appendFrame(nil, string(hdr))
	for _, t := range tuples {
		out = appendFrame(out, t.Key())
	}
	return out
}

// FuzzSegmentReplay feeds arbitrary bytes to recovery as the content of a
// relation's only (and therefore final) segment. Whatever the bytes — truncated
// tails, garbled frames, duplicated tuples, hostile headers — recovery must
// either succeed or fail cleanly: no panic, a failure leaves the file as it
// was, and on success a second recovery of the (post-truncation) directory
// must reproduce the identical instance, so no torn tuple is ever
// resurrected, and every replayed row is stored in its tuple's one
// spelling. The committed corpus holds segments in the pdms-seg1 format,
// which exercise the rejection, and pdms-seg2 segments whose last payload
// is not exactly one canonical row.
func FuzzSegmentReplay(f *testing.F) {
	whole := segmentBytes(2, rel.Tuple{"a", "b"}, rel.Tuple{"c", "d"}, rel.Tuple{"e", "f"})
	f.Add(whole)
	f.Add(whole[:len(whole)-4])            // torn mid-frame
	f.Add(append([]byte("12:"), whole...)) // garbled prefix
	dup := segmentBytes(2, rel.Tuple{"a", "b"}, rel.Tuple{"a", "b"})
	f.Add(dup) // duplicated tail tuple
	f.Add([]byte{})
	f.Add([]byte("9:{\"bad\":1}\n"))
	// Arity 0: the one tuple is the one-byte block of an empty row.
	f.Add(segmentBytes(0, rel.Tuple{}))
	f.Add([]byte(seg1Bytes)) // the earlier format, which recovery must reject
	// A row torn inside its values, a value's length garbled into a
	// two-byte uvarint, and values holding a newline, a colon and invalid
	// UTF-8.
	f.Add(whole[:len(whole)-3])
	garbled := bytes.Clone(whole)
	garbled[bytes.LastIndexByte(garbled, 'e')-1] = 0x81
	f.Add(garbled)
	f.Add(segmentBytes(2, rel.Tuple{"a\nb", "\xff\xfe"}, rel.Tuple{"\n", "9:"}))
	// Payloads that are not exactly one canonical row of the arity, after
	// a canonical (a, b).
	for _, c := range nonCanonicalPayloads {
		f.Add(appendFrame(segmentBytes(2, rel.Tuple{"a", "b"}), c.payload))
	}
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
			// Clean rejection is a valid outcome, and touches nothing.
			if after, rerr := os.ReadFile(filepath.Join(segDir, segFileName(0))); rerr != nil || !bytes.Equal(after, data) {
				t.Fatalf("recovery failed (%v) and altered the segment (%v)", err, rerr)
			}
			return
		}
		for _, rec := range recs {
			r := ins.Relation(rec.Pred)
			if r == nil {
				t.Fatalf("recovery reported %q but the instance lacks it", rec.Pred)
			}
			if r.Version() != rec.Gen || rec.Tuples != r.Len() {
				t.Fatalf("recovery report disagrees with the instance: %+v vs gen %d len %d", rec, r.Version(), r.Len())
			}
			// Every stored row is its tuple's one spelling.
			rs := r.Rows()
			for _, l := range rs.Since(0) {
				tu := make(rel.Tuple, r.Arity())
				rel.SplitRow(rs.Key(l), tu)
				if tu.Key() != rs.Key(l) {
					t.Fatalf("replayed row %q is not %q's one spelling %q", rs.Key(l), tu, tu.Key())
				}
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
