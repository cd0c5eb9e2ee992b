package rel

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestShardedN1EquivalentToSeed: one shard must reproduce the pre-sharding
// layout observably — one log in insertion order, Version = insert count,
// sorted Tuples, routing degenerate.
func TestShardedN1EquivalentToSeed(t *testing.T) {
	r := NewRelationSharded("R", 2, 1)
	if r.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", r.NumShards())
	}
	ins := []Tuple{{"b", "2"}, {"a", "1"}, {"c", "3"}}
	for _, tu := range ins {
		if nw, err := r.Insert(tu); err != nil || !nw {
			t.Fatalf("insert %v: %v %v", tu, nw, err)
		}
	}
	if r.Insert(Tuple{"b", "2"}); r.Version() != 3 {
		t.Fatalf("Version = %d after 3 distinct inserts + 1 dup, want 3", r.Version())
	}
	log := r.ShardAddedSince(0, 0)
	if len(log) != 3 || !log[0].Equal(ins[0]) || !log[2].Equal(ins[2]) {
		t.Fatalf("single-shard log not in insertion order: %v", log)
	}
	if got := r.ShardAddedSince(0, 2); len(got) != 1 || !got[0].Equal(ins[2]) {
		t.Fatalf("ShardAddedSince(0,2) = %v", got)
	}
	if got := r.Tuples(); len(got) != 3 || got[0][0] != "a" {
		t.Fatalf("Tuples = %v, want sorted", got)
	}
	if r.ShardFor("anything") != 0 {
		t.Fatal("N=1 routing must be shard 0")
	}
}

// TestShardPartitioning: every tuple lands in the shard ShardOf names, the
// shards together hold exactly the relation, and the generation fold equals
// the insert count.
func TestShardPartitioning(t *testing.T) {
	const n = 8
	r := NewRelationSharded("R", 2, n)
	rng := rand.New(rand.NewSource(7))
	inserted := map[string]bool{}
	for i := 0; i < 2000; i++ {
		tu := Tuple{fmt.Sprintf("k%d", rng.Intn(700)), fmt.Sprintf("v%d", i)}
		nw, err := r.Insert(tu)
		if err != nil {
			t.Fatal(err)
		}
		if nw {
			inserted[tu.Key()] = true
		}
	}
	if r.Len() != len(inserted) || r.Version() != uint64(len(inserted)) {
		t.Fatalf("Len=%d Version=%d, want %d", r.Len(), r.Version(), len(inserted))
	}
	var sum uint64
	total := 0
	for s := 0; s < n; s++ {
		sum += r.ShardVersion(s)
		for _, tu := range r.ShardAddedSince(s, 0) {
			total++
			if want := ShardOf(tu[0], n); want != s {
				t.Fatalf("tuple %v in shard %d, ShardOf says %d", tu, s, want)
			}
			if !inserted[tu.Key()] {
				t.Fatalf("phantom tuple %v", tu)
			}
		}
		if r.ShardLen(s) != len(r.ShardAddedSince(s, 0)) {
			t.Fatalf("shard %d: len %d vs log %d", s, r.ShardLen(s), len(r.ShardAddedSince(s, 0)))
		}
	}
	if total != len(inserted) || sum != uint64(len(inserted)) {
		t.Fatalf("shards cover %d tuples (gen fold %d), want %d", total, sum, len(inserted))
	}
	// Contains routes correctly for every inserted tuple.
	for s := 0; s < n; s++ {
		for _, tu := range r.ShardAddedSince(s, 0) {
			if !r.Contains(tu) {
				t.Fatalf("Contains(%v) = false", tu)
			}
		}
	}
	if r.Contains(Tuple{"nope", "nope"}) {
		t.Fatal("Contains on absent tuple")
	}
}

// TestSkewedKeysSingleShard: a pathological first column (one value) lands
// every tuple in one shard; correctness is unaffected and the skew is
// visible in ShardLen.
func TestSkewedKeysSingleShard(t *testing.T) {
	r := NewRelationSharded("R", 2, 8)
	for i := 0; i < 500; i++ {
		r.Insert(Tuple{"hot", fmt.Sprintf("v%d", i)})
	}
	nonEmpty := 0
	for s := range r.NumShards() {
		if rows := r.ShardLen(s); rows > 0 {
			nonEmpty++
			if rows != 500 {
				t.Fatalf("skewed shard holds %d rows, want 500", rows)
			}
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("%d shards populated by a single-value key, want 1", nonEmpty)
	}
	if r.Len() != 500 || len(r.Tuples()) != 500 {
		t.Fatalf("Len=%d Tuples=%d", r.Len(), len(r.Tuples()))
	}
}

// TestShardOfDistribution: the hash spreads realistic keys roughly evenly
// (each of 8 shards within 3x of fair share over 8000 keys) and is
// deterministic.
func TestShardOfDistribution(t *testing.T) {
	const n, keys = 8, 8000
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		s := ShardOf(k, n)
		if s != ShardOf(k, n) {
			t.Fatal("ShardOf not deterministic")
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < keys/n/3 || c > keys/n*3 {
			t.Fatalf("shard %d holds %d of %d keys (distribution %v)", s, c, keys, counts)
		}
	}
}

// TestShardedCloneIndependent: clones preserve shard layout, contents and
// generations, and diverge after mutation.
func TestShardedCloneIndependent(t *testing.T) {
	ins := NewInstanceSharded(4)
	for i := 0; i < 100; i++ {
		ins.MustAdd("R", fmt.Sprintf("k%d", i), "v")
	}
	cp := ins.Clone()
	r, cr := ins.Relation("R"), cp.Relation("R")
	if cr.NumShards() != r.NumShards() || cr.Version() != r.Version() {
		t.Fatalf("clone layout/gen mismatch: %d/%d vs %d/%d", cr.NumShards(), cr.Version(), r.NumShards(), r.Version())
	}
	if !reflect.DeepEqual(cr.Tuples(), r.Tuples()) {
		t.Fatal("clone contents differ")
	}
	cp.MustAdd("R", "new", "v")
	if r.Len() != 100 || cr.Len() != 101 {
		t.Fatalf("clone aliases original: %d vs %d", r.Len(), cr.Len())
	}
	if r.Version() == cr.Version() {
		t.Fatal("clone generation did not advance independently")
	}
}

// TestReshard: repartitioning preserves contents across any shard count.
func TestReshard(t *testing.T) {
	src := NewInstanceSharded(1)
	for i := 0; i < 300; i++ {
		src.MustAdd("A", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i%7))
	}
	src.MustAdd("B", "x")
	for _, n := range []int{1, 2, 8} {
		out := Reshard(src, n)
		if got := out.Relation("A").NumShards(); got != n {
			t.Fatalf("Reshard(%d): NumShards = %d", n, got)
		}
		if !reflect.DeepEqual(out.Relation("A").Tuples(), src.Relation("A").Tuples()) {
			t.Fatalf("Reshard(%d) changed contents", n)
		}
		if out.Relation("B").Len() != 1 {
			t.Fatalf("Reshard(%d) lost relation B", n)
		}
	}
}

// TestConcurrentShardInserts: concurrent inserts (multiple writers) are
// safe and lose nothing — each shard self-synchronizes. Run with -race.
func TestConcurrentShardInserts(t *testing.T) {
	r := NewRelationSharded("R", 2, 4)
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
			r.ShardLen(i % r.NumShards())
			r.Tuples()
		}
	}()
	wg.Wait()
	<-done
	if r.Len() != writers*per || r.Version() != uint64(writers*per) {
		t.Fatalf("Len=%d Version=%d, want %d", r.Len(), r.Version(), writers*per)
	}
}

// TestTuplesCacheFreshness: the sorted view must track growth (regression
// for the version-tagged cache replacing insert-time invalidation).
func TestTuplesCacheFreshness(t *testing.T) {
	r := NewRelationSharded("R", 1, 4)
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
