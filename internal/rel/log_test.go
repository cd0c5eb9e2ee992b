package rel

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestInsertLogAndVersion: a relation keeps one log in insertion order,
// Version counts distinct inserts, AddedSince(v) is the log suffix past v,
// and Tuples is sorted.
func TestInsertLogAndVersion(t *testing.T) {
	r := NewRelation("R", 2)
	ins := []Tuple{{"b", "2"}, {"a", "1"}, {"c", "3"}}
	for _, tu := range ins {
		if nw, err := r.Insert(tu); err != nil || !nw {
			t.Fatalf("insert %v: %v %v", tu, nw, err)
		}
	}
	if r.Insert(Tuple{"b", "2"}); r.Version() != 3 {
		t.Fatalf("Version = %d after 3 distinct inserts + 1 dup, want 3", r.Version())
	}
	if log := r.AddedSince(0); !reflect.DeepEqual(log, ins) {
		t.Fatalf("log not in insertion order: %v", log)
	}
	if got := r.AddedSince(2); len(got) != 1 || !got[0].Equal(ins[2]) {
		t.Fatalf("AddedSince(2) = %v", got)
	}
	if got := r.AddedSince(4); got != nil {
		t.Fatalf("AddedSince past the log = %v, want nil", got)
	}
	if got := r.Tuples(); len(got) != 3 || got[0][0] != "a" {
		t.Fatalf("Tuples = %v, want sorted", got)
	}
}

// TestShardedCloneIndependent: clones preserve contents, log order and
// generation, and diverge after mutation.
func TestShardedCloneIndependent(t *testing.T) {
	ins := NewInstance()
	for i := 0; i < 100; i++ {
		ins.MustAdd("R", fmt.Sprintf("k%d", (i*37)%100), "v")
	}
	cp := ins.Clone()
	r, cr := ins.Relation("R"), cp.Relation("R")
	if cr.Version() != r.Version() {
		t.Fatalf("clone generation %d, source %d", cr.Version(), r.Version())
	}
	if !reflect.DeepEqual(cr.AddedSince(0), r.AddedSince(0)) {
		t.Fatal("clone log differs")
	}
	cp.MustAdd("R", "new", "v")
	if r.Len() != 100 || cr.Len() != 101 {
		t.Fatalf("clone aliases original: %d vs %d", r.Len(), cr.Len())
	}
	if r.Version() == cr.Version() {
		t.Fatal("clone generation did not advance independently")
	}
}

// TestConcurrentShardInserts: concurrent inserts (multiple writers) into
// one relation, serialized by its one mutex, are safe and lose nothing,
// while readers take the same lock. Run with -race.
func TestConcurrentShardInserts(t *testing.T) {
	r := NewRelation("R", 2)
	const writers, per = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := r.Insert(Tuple{fmt.Sprintf("w%d-%d", w, i), "v"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Concurrent readers exercise the lock discipline.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			r.Len()
			r.Version()
			r.AddedSince(uint64(i))
			r.Tuples()
		}
	}()
	wg.Wait()
	<-done
	if r.Len() != writers*per || r.Version() != uint64(writers*per) {
		t.Fatalf("Len=%d Version=%d, want %d", r.Len(), r.Version(), writers*per)
	}
	// Each writer's rows appear in the log in the order it inserted them.
	next := make([]int, writers)
	for _, tu := range r.AddedSince(0) {
		var w, i int
		if _, err := fmt.Sscanf(tu[0], "w%d-%d", &w, &i); err != nil || i != next[w] {
			t.Fatalf("log row %v out of its writer's order (want index %d)", tu, next[w])
		}
		next[w]++
	}
}

// TestTuplesCacheFreshness: the sorted view must track growth (regression
// for the version-tagged cache replacing insert-time invalidation).
func TestTuplesCacheFreshness(t *testing.T) {
	r := NewRelation("R", 1)
	r.Insert(Tuple{"b"})
	if got := r.Tuples(); len(got) != 1 {
		t.Fatalf("Tuples = %v", got)
	}
	r.Insert(Tuple{"a"})
	got := r.Tuples()
	if len(got) != 2 || got[0][0] != "a" {
		t.Fatalf("Tuples after growth = %v, want sorted fresh view", got)
	}
	// Unchanged relation: cached slice is reused.
	if &got[0] != &r.Tuples()[0] {
		t.Fatal("sorted view not cached across calls at the same version")
	}
}
