package rel

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestInstanceConcurrentCreate hammers first-use relation creation: for
// each brand-new predicate, several goroutines Add concurrently (racing
// the lazy map insert), others EnsureRelation the same name, and catalog
// walkers read the map the whole time. Before the instance guarded its
// relation map, two racing creators could overwrite — and so lose — each
// other's freshly made relation, and any concurrent reader was a map
// read/write race (a "concurrent map writes" panic under load, a report
// under -race). Now every predicate must end up with exactly one relation
// holding every writer's tuple.
func TestInstanceConcurrentCreate(t *testing.T) {
	const (
		preds   = 8
		writers = 8 // per predicate, all racing the first use
	)
	ins := NewInstance()
	var wg sync.WaitGroup
	for p := 0; p < preds; p++ {
		pred := fmt.Sprintf("p%d", p)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(val string) {
				defer wg.Done()
				if _, err := ins.Add(pred, Tuple{val}); err != nil {
					t.Errorf("add %s(%s): %v", pred, val, err)
				}
			}(fmt.Sprintf("v%d", w))
		}
		wg.Add(1)
		go func(pred string) {
			defer wg.Done()
			if r := ins.EnsureRelation(pred, 1); r == nil {
				t.Errorf("ensure %s returned nil", pred)
			}
		}(pred)
	}
	// Catalog walkers race the creators: membership reads must be safe
	// against the first-use map inserts.
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, name := range ins.Relations() {
					ins.Gen(name)
					ins.Relation(name)
				}
				ins.Size()
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if got := len(ins.Relations()); got != preds {
		t.Fatalf("relations = %d, want %d", got, preds)
	}
	for p := 0; p < preds; p++ {
		pred := fmt.Sprintf("p%d", p)
		if got := ins.Relation(pred).Len(); got != writers {
			t.Fatalf("%s holds %d tuples, want %d (a racing creator's relation was lost)", pred, got, writers)
		}
	}
}

// TestArenaConcurrentInsertReadClone races inserts into a relation's
// arenas against log readers and clones, all on the relation's one mutex:
// readers walk the stored rows' bytes while writers carve new rows from
// the same chunks, and each clone starts arenas of its own while the
// source keeps writing. Under -race any write to bytes a stored row
// already holds is a report; afterwards every clone holds a prefix of the
// source's rows, intact.
func TestArenaConcurrentInsertReadClone(t *testing.T) {
	const writers, rows = 4, 300
	ins := NewInstance()
	ins.EnsureRelation("p", 2)
	r := ins.Relation("p")
	row := func(w, i int) Tuple { return Tuple{fmt.Sprintf("w%d_%d", w, i), fmt.Sprintf("payload-%d-%d", w, i*i)} }
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rows {
				if _, err := r.Insert(row(w, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	clones := make(chan *Instance, 64)
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, tu := range insertLog(r) {
				if !r.Contains(tu) || len(tu[1]) < len("payload-") {
					t.Errorf("stored row %q unreadable", tu)
					return
				}
			}
		}
	}()
	go func() {
		defer readers.Done()
		defer close(clones)
		for {
			select {
			case <-done:
				return
			default:
			}
			c := ins.Clone()
			c.MustAdd("p", "clone-only", "x")
			select {
			case clones <- c:
			default:
			}
		}
	}()
	wg.Wait()
	close(done)
	readers.Wait()
	want := map[string]bool{}
	for w := range writers {
		for i := range rows {
			want[row(w, i).String()] = true
		}
	}
	if got := r.Len(); got != writers*rows {
		t.Fatalf("source holds %d rows, want %d", got, writers*rows)
	}
	src := insertLog(r)
	for c := range clones {
		for _, tu := range c.Relation("p").Tuples() {
			if !want[tu.String()] && !tu.Equal(Tuple{"clone-only", "x"}) {
				t.Fatalf("clone holds %q, which no writer inserted", tu)
			}
		}
		// The clone's log is a prefix of the source's, then its own row.
		cl := insertLog(c.Relation("p"))
		n := len(cl) - 1
		if n < 0 || n > len(src) || !cl[n].Equal(Tuple{"clone-only", "x"}) || !slices.EqualFunc(cl[:n], src[:n], Tuple.Equal) {
			t.Fatalf("clone log of %d rows is not a prefix of the source's %d plus its own row", len(cl), len(src))
		}
	}
	if r.Contains(Tuple{"clone-only", "x"}) {
		t.Fatal("a clone's insert reached the source")
	}
}
