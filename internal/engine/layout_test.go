package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/lang"
	"repro/internal/rel"
)

// TestLayoutUnderConcurrentProbesAndScans: while a writer inserts rows at
// one key and at others, full scans run on one engine and probes of that
// key on two, whose first builds race to lay the relation out under them
// (run with -race). Every answer lies inside the monotone envelope, as in
// TestScanConcurrentInsert, and a value handed out before the layout keeps
// its bytes.
func TestLayoutUnderConcurrentProbesAndScans(t *testing.T) {
	const base, live, hot = 1500, 300, "hot"
	scan := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x"), lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("R", lang.Var("x"), lang.Var("y"))},
	}
	probe := lang.CQ{
		Head: lang.NewAtom("q", lang.Const(hot), lang.Var("y")),
		Body: []lang.Atom{lang.NewAtom("R", lang.Const(hot), lang.Var("y"))},
	}
	for round := range 4 {
		ins := rel.NewInstance()
		key := func(i int) string {
			if i%5 == 0 {
				return hot
			}
			return fmt.Sprintf("k%d", i%40)
		}
		var ledger []rel.Tuple // every row, in the order its insert began
		for i := range base {
			tu := rel.Tuple{key(i), fmt.Sprintf("base%d", i)}
			ins.MustAdd("R", tu...)
			ledger = append(ledger, tu)
		}
		r := ins.Relation("R")
		scanner, prober := New(ins), New(ins)

		var held string
		if err := scanner.StreamScan("R", func(tu rel.Tuple) error {
			held = tu[1]
			return ErrStop
		}); err != nil {
			t.Fatal(err)
		}
		heldWas := strings.Clone(held)

		// The writer appends a row to the ledger before inserting it and
		// counts it in returned once Insert returns: an answer must hold
		// every row returned before it started and no row the ledger lacks
		// when it ends.
		var mu sync.Mutex
		returned := base
		returnedNow := func() int {
			mu.Lock()
			defer mu.Unlock()
			return returned
		}
		check := func(what string, n0 int, got []rel.Tuple, keep func(rel.Tuple) bool) {
			mu.Lock()
			upper := map[string]bool{}
			for _, tu := range ledger {
				upper[tu.Key()] = true
			}
			lower := ledger[:n0]
			mu.Unlock()
			seen := map[string]bool{}
			for _, tu := range got {
				if !upper[tu.Key()] {
					t.Errorf("round %d: %s: phantom answer %v", round, what, tu)
				}
				seen[tu.Key()] = true
			}
			for _, tu := range lower {
				if keep(tu) && !seen[tu.Key()] {
					t.Errorf("round %d: %s lost %v, inserted before it started", round, what, tu)
				}
			}
		}
		all := func(rel.Tuple) bool { return true }
		isHot := func(tu rel.Tuple) bool { return tu[0] == hot }

		start := make(chan struct{})
		var wg sync.WaitGroup
		run := func(f func()) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				f()
			}()
		}
		run(func() {
			for i := base; i < base+live; i++ {
				tu := rel.Tuple{key(i), fmt.Sprintf("live%d", i)}
				mu.Lock()
				ledger = append(ledger, tu)
				mu.Unlock()
				if _, err := r.Insert(tu); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				returned++
				mu.Unlock()
			}
		})
		run(func() {
			for range 8 {
				n0 := returnedNow()
				got, err := scanner.EvalCQ(scan)
				if err != nil {
					t.Error(err)
					return
				}
				check("scan", n0, got, all)
			}
		})
		for _, e := range []*Engine{scanner, prober} {
			run(func() {
				for range 20 {
					n0 := returnedNow()
					got, err := e.EvalCQ(probe)
					if err != nil {
						t.Error(err)
						return
					}
					check("probe", n0, got, isHot)
				}
			})
		}
		run(func() {
			for range 20 {
				n0 := returnedNow()
				got, err := prober.ProbeByKeyBatch("R", []int{0}, [][]string{{hot}})
				if err != nil {
					t.Error(err)
					return
				}
				check("probe batch", n0, got, isHot)
			}
		})
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		if !r.Rows().LaidOut() {
			t.Fatalf("round %d: the relation was not laid out", round)
		}
		if held != heldWas {
			t.Fatalf("round %d: a value handed out before the layout reads %q, was %q", round, held, heldWas)
		}
		// Quiesced: exact answers from both engines.
		for _, e := range []*Engine{scanner, prober} {
			if got := mustEval(t, e, scan); len(got) != base+live {
				t.Fatalf("round %d: quiesced scan has %d rows, want %d", round, len(got), base+live)
			}
			if got := mustEval(t, e, probe); len(got) != (base+live)/5 {
				t.Fatalf("round %d: quiesced probe has %d rows, want %d", round, len(got), (base+live)/5)
			}
		}
	}
}

// TestLayoutLeavesOldChunks: once the first index has laid a relation out,
// no index's bucket key or snapshot points into the chunks the relation
// left — neither the index that laid it out nor one built after — and
// nothing the engine or the relation keeps pins them: they are collected.
// A single-column bucket key is a substring of the arena, so an index that
// kept the keys it decoded before the layout would pin the whole old arena.
func TestLayoutLeavesOldChunks(t *testing.T) {
	ins := rel.NewInstance()
	for i := range 3000 {
		ins.MustAdd("R", fmt.Sprintf("key%04d", i%300), fmt.Sprintf("value%06d", i), fmt.Sprintf("x%d", i%7))
	}
	r := ins.Relation("R")
	if r.Rows().LaidOut() {
		t.Fatal("laid out before any index")
	}

	// The old arena: the byte range of every chunk, and a cleanup on each
	// chunk that counts its collection. A chunk starts where a row does not
	// follow the row before it. pin holds the old chunks until the address
	// checks below are done: a chunk collected earlier could have its
	// memory reused by a key built after the layout, which would then seem
	// to lie in the old arena.
	type span struct{ lo, hi uintptr }
	var spans []span
	var freed atomic.Int32
	pin := r.Rows()
	for _, l := range pin.Since(0) {
		k := pin.Key(l)
		lo := uintptr(unsafe.Pointer(unsafe.StringData(k)))
		if n := len(spans); n > 0 && spans[n-1].hi == lo {
			spans[n-1].hi += uintptr(len(k))
			continue
		}
		spans = append(spans, span{lo, lo + uintptr(len(k))})
		runtime.AddCleanup(unsafe.StringData(k), func(int) { freed.Add(1) }, 0)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	inOld := func(s string) bool {
		if s == "" {
			return false
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		i := sort.Search(len(spans), func(i int) bool { return spans[i].hi > p })
		return i < len(spans) && spans[i].lo <= p
	}

	e := New(ins)
	for _, c := range []struct {
		cols []int
		key  []string
	}{
		{[]int{0}, []string{"key0042"}}, // lays the relation out
		{[]int{2}, []string{"x3"}},      // built after the layout
		{[]int{0, 2}, []string{"key0042", "x0"}},
	} {
		want := 0
		for _, tu := range r.Tuples() {
			if tu[c.cols[0]] == c.key[0] && tu[c.cols[len(c.cols)-1]] == c.key[len(c.key)-1] {
				want++
			}
		}
		if got, err := e.ProbeByKeyBatch("R", c.cols, [][]string{c.key}); err != nil || len(got) != want || want == 0 {
			t.Fatalf("probe %v of %v: %d rows (%v), want %d", c.cols, c.key, len(got), err, want)
		}
		if !r.Rows().LaidOut() {
			t.Fatal("the first index did not lay the relation out")
		}
	}
	for ck, idx := range e.indexes["R"] {
		for l := range idx.rows.All() {
			if inOld(idx.rows.Key(l)) {
				t.Fatalf("index %s: its snapshot reads a row in the old arena", ck)
			}
		}
		for k, g := range idx.keys {
			if inOld(k) {
				t.Fatalf("index %s: bucket key %q lies in the old arena", ck, k)
			}
			for _, l := range idx.buckets[g] {
				if inOld(idx.rows.Key(l)) {
					t.Fatalf("index %s: bucket %q locates a row in the old arena", ck, k)
				}
			}
		}
	}
	runtime.KeepAlive(pin) // from here on, only the engine or the relation could keep them

	for i := 0; i < 100 && int(freed.Load()) < len(spans); i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if n := int(freed.Load()); n < len(spans) {
		t.Fatalf("%d of the old arena's %d chunks are still reachable after the layout", len(spans)-n, len(spans))
	}
	runtime.KeepAlive(e)
}

// TestIndexTablesPointerFree: what an index keeps per row — its buckets'
// elements, which a build places in one []rel.Loc — is of a pointer-free
// type, so the garbage collector never scans it (rel's
// TestStoredRowTablesPointerFree checks the relation's own tables).
func TestIndexTablesPointerFree(t *testing.T) {
	var idx index
	if elem := reflect.TypeOf(idx.buckets).Elem().Elem(); !pointerFree(elem) {
		t.Fatalf("index buckets hold %v, which holds pointers", elem)
	}
}

// pointerFree reports whether values of typ hold no pointer.
func pointerFree(typ reflect.Type) bool {
	switch k := typ.Kind(); {
	case k >= reflect.Bool && k <= reflect.Complex128:
		return true
	case k == reflect.Array:
		return typ.Len() == 0 || pointerFree(typ.Elem())
	case k == reflect.Struct:
		for i := range typ.NumField() {
			if !pointerFree(typ.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}
