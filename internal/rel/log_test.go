package rel

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// insertLog decodes r's rows in insertion order.
func insertLog(r *Relation) []Tuple {
	rs := r.Rows()
	out := make([]Tuple, 0, rs.Len())
	for _, l := range rs.Locs() {
		t := make(Tuple, r.Arity())
		SplitKey(rs.Key(l), t)
		out = append(out, t)
	}
	return out
}

// TestInsertLogAndVersion: a relation keeps its rows in insertion order,
// Version counts distinct inserts, a Rows snapshot past version v holds
// exactly the rows inserted since, and Tuples is sorted.
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
	if log := insertLog(r); !reflect.DeepEqual(log, ins) {
		t.Fatalf("log not in insertion order: %v", log)
	}
	rs := r.Rows()
	if rs.Len() != 3 {
		t.Fatalf("Rows().Len() = %d, want 3", rs.Len())
	}
	r.Insert(Tuple{"d", "4"})
	if rs.Len() != 3 || len(rs.Locs()) != 3 {
		t.Fatal("a snapshot grew with a later insert")
	}
	got := make(Tuple, 2)
	SplitKey(r.Rows().Key(r.Rows().Locs()[3]), got)
	if !got.Equal(Tuple{"d", "4"}) {
		t.Fatalf("the row past the snapshot = %v", got)
	}
	if got := r.Tuples(); len(got) != 4 || got[0][0] != "a" {
		t.Fatalf("Tuples = %v, want sorted", got)
	}
}

// TestCloneKeepsInsertOrder: clones preserve contents, insertion order and
// generation, and diverge after mutation.
func TestCloneKeepsInsertOrder(t *testing.T) {
	ins := NewInstance()
	for i := 0; i < 100; i++ {
		ins.MustAdd("R", fmt.Sprintf("k%d", (i*37)%100), "v")
	}
	cp := ins.Clone()
	r, cr := ins.Relation("R"), cp.Relation("R")
	if cr.Version() != r.Version() {
		t.Fatalf("clone generation %d, source %d", cr.Version(), r.Version())
	}
	if !reflect.DeepEqual(insertLog(cr), insertLog(r)) {
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

// TestConcurrentInserts: concurrent inserts (multiple writers) into one
// relation, serialized by its one mutex, are safe and lose nothing, while
// readers take the same lock. Run with -race.
func TestConcurrentInserts(t *testing.T) {
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
			r.Rows()
			r.Tuples()
			r.Contains(Tuple{fmt.Sprintf("w0-%d", i), "v"})
		}
	}()
	wg.Wait()
	<-done
	if r.Len() != writers*per || r.Version() != uint64(writers*per) {
		t.Fatalf("Len=%d Version=%d, want %d", r.Len(), r.Version(), writers*per)
	}
	// Each writer's rows appear in the log in the order it inserted them.
	next := make([]int, writers)
	for _, tu := range insertLog(r) {
		var w, i int
		if _, err := fmt.Sscanf(tu[0], "w%d-%d", &w, &i); err != nil || i != next[w] {
			t.Fatalf("log row %v out of its writer's order (want index %d)", tu, next[w])
		}
		next[w]++
	}
}

// TestTuplesCacheFreshness: the sorted view tracks growth, and each call
// builds its own result, so a caller that writes to one cannot change what
// the next call returns.
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
	got[0][0], got[1] = "overwritten", nil
	if again := r.Tuples(); len(again) != 2 || again[0][0] != "a" || again[1][0] != "b" {
		t.Fatalf("Tuples after a caller wrote to an earlier result = %v", again)
	}
}
