package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/rel"
	"repro/internal/store"
)

// diskBackedPair journals a random data set through store.Dir, crashes
// (drops the live instance), and recovers from the segments — returning the
// in-memory oracle instance and the disk-recovered one.
func diskBackedPair(t *testing.T, rng *rand.Rand, domain int) (*rel.Instance, *rel.Instance, *store.Dir) {
	t.Helper()
	dir := t.TempDir()
	d, err := store.Open(dir, store.Options{MaxSegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	live, _, err := d.Recover(0)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	d.Attach(live)
	mem := rel.NewInstance()
	for _, p := range diffPreds {
		n := rng.Intn(60)
		for i := 0; i < n; i++ {
			tup := make(rel.Tuple, p.arity)
			for j := range tup {
				tup[j] = fmt.Sprintf("c%d", rng.Intn(domain))
			}
			mem.MustAdd(p.name, tup...)
			live.MustAdd(p.name, tup...)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	d2, err := store.Open(dir, store.Options{MaxSegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	recovered, _, err := d2.Recover(0)
	if err != nil {
		t.Fatalf("recover after close: %v", err)
	}
	d2.Attach(recovered)
	return mem, recovered, d2
}

// TestDifferentialDiskBackedCQ runs the differential corpus against the
// disk-backed layout: the engine over a segment-recovered instance (with
// journaled mid-test mutations) must agree exactly with the naive oracle
// over a plain in-memory copy.
func TestDifferentialDiskBackedCQ(t *testing.T) {
	for seed := 0; seed < 40; seed++ {
		rng := rand.New(rand.NewSource(int64(31000 + seed)))
		domain := 3 + rng.Intn(5)
		mem, disk, d := diskBackedPair(t, rng, domain)
		e := New(disk)
		for k := 0; k < 3; k++ {
			q := randCQ(rng, domain)
			want, errWant := rel.EvalCQ(q, mem)
			got, errGot := e.EvalCQ(q)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("seed %d: error mismatch on %s: naive %v, disk-backed %v", seed, q, errWant, errGot)
			}
			if errWant == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: mismatch on %s:\nnaive       %v\ndisk-backed %v", seed, q, want, got)
			}
			// Mutations after recovery go through the re-attached journal
			// hooks; the engine's index catch-up must still see them
			// immediately.
			p := diffPreds[rng.Intn(len(diffPreds))]
			tup := make(rel.Tuple, p.arity)
			for j := range tup {
				tup[j] = fmt.Sprintf("c%d", rng.Intn(domain))
			}
			mem.MustAdd(p.name, tup...)
			disk.MustAdd(p.name, tup...)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("seed %d: close: %v", seed, err)
		}
	}
}
