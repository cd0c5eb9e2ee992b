package pdms_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/swarm"
	"repro/pdms"
)

// TestConcurrentMissesShareTheGenerationsReformulator drives the one
// core.Reformulator a Network keeps per spec generation from eight
// goroutines at once — every query has a shape of its own (peer, constant
// position, one- or two-atom body), so every call misses the reformulation
// cache, whose key leaves the constants out, and builds a tree on the
// shared catalog — while a ninth extends the specification midway. Each
// rewriting must equal what a fresh, single-threaded core.New produces for
// the generation the call ran under. Run with -race: it is also the proof
// that nothing a builder does writes to the catalog.
func TestConcurrentMissesShareTheGenerationsReformulator(t *testing.T) {
	const workers, perWorker = 8, 12
	spec, extension := sharedSpec(t)
	net, err := pdms.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	net.RegisterMetrics(reg)

	type outcome struct {
		text, got string
		// before: the call returned before Extend began; after: it began
		// after Extend returned. Neither: it overlapped, either generation.
		before, after bool
	}
	var extendBegun, extendDone atomic.Bool
	var calls atomic.Int64
	halfway, extended := make(chan struct{}), make(chan struct{})
	outcomes := make([][]outcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				if k == perWorker-1 {
					// Each worker's last call waits for Extend to return,
					// so the second generation is exercised however fast
					// the other calls run.
					<-extended
				}
				text := shapeQuery(w*perWorker+k, fmt.Sprintf("c%d_%d", w, k))
				after := extendDone.Load()
				ref, err := net.Reformulate(text)
				before := !extendBegun.Load()
				if err != nil {
					t.Errorf("%s: %v", text, err)
					return
				}
				outcomes[w] = append(outcomes[w], outcome{text, ref.Rewriting.String(), before, after})
				if calls.Add(1) == workers*perWorker/2 {
					close(halfway)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-halfway
		extendBegun.Store(true)
		if err := net.Extend(extension); err != nil {
			t.Errorf("Extend: %v", err)
		}
		extendDone.Store(true)
		close(extended)
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// The expectations, from a second network taken through the same two
	// generations with nothing running beside it.
	model, err := pdms.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	expect := func() map[string]string {
		r, err := core.New(model.Spec(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]string{}
		for _, os := range outcomes {
			for _, o := range os {
				q, err := parser.ParseQuery(o.text)
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.Reformulate(q)
				if err != nil {
					t.Fatal(err)
				}
				want[o.text] = res.UCQ.String()
			}
		}
		return want
	}
	gen0 := expect()
	if err := model.Extend(extension); err != nil {
		t.Fatal(err)
	}
	gen1 := expect()

	sawBefore, sawAfter := 0, 0
	for _, os := range outcomes {
		for _, o := range os {
			if gen0[o.text] == gen1[o.text] {
				t.Fatalf("%s: the extension does not change its rewriting", o.text)
			}
			switch {
			case o.before:
				sawBefore++
				if o.got != gen0[o.text] {
					t.Errorf("%s ran before Extend:\n got %s\nwant %s", o.text, o.got, gen0[o.text])
				}
			case o.after:
				sawAfter++
				if o.got != gen1[o.text] {
					t.Errorf("%s ran after Extend:\n got %s\nwant %s", o.text, o.got, gen1[o.text])
				}
			case o.got != gen0[o.text] && o.got != gen1[o.text]:
				t.Errorf("%s overlapped Extend and matches neither generation:\n got %s", o.text, o.got)
			}
		}
	}
	if sawBefore == 0 || sawAfter == 0 {
		t.Errorf("%d calls before Extend, %d after: both generations must be exercised", sawBefore, sawAfter)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["core.catalog_builds"]; got != 2 {
		t.Errorf("core.catalog_builds = %d, want 2 (one per generation that saw a miss)", got)
	}
	if got := snap.Counters["pdms.reform_cache.misses"]; got != workers*perWorker {
		t.Errorf("pdms.reform_cache.misses = %d, want %d: every shape is distinct", got, workers*perWorker)
	}
	if snap.Counters["core.nodes_expanded"] == 0 || snap.Histograms["core.reformulate_seconds"].Count != workers*perWorker {
		t.Errorf("core.nodes_expanded = %d, core.reformulate_seconds count = %d, want > 0 and %d",
			snap.Counters["core.nodes_expanded"], snap.Histograms["core.reformulate_seconds"].Count, workers*perWorker)
	}
}

// TestSameShapeHitsTheSharedEntry warms the reformulation cache with one
// query of each shape, then has eight goroutines pose every shape again
// over constants of their own: each call must hit, and its rewriting — the
// cached shape's with the call's constant substituted — must equal what a
// fresh core.New produces for the query as posed.
func TestSameShapeHitsTheSharedEntry(t *testing.T) {
	const workers, shapes = 8, 4 * sharedPeers
	spec, _ := sharedSpec(t)
	net, err := pdms.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	net.RegisterMetrics(reg)
	for i := 0; i < shapes; i++ {
		if _, err := net.Reformulate(shapeQuery(i, "warm")); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < shapes; i++ {
				ref, err := net.Reformulate(shapeQuery(i, fmt.Sprintf("c%d_%d", w, i)))
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], ref.Rewriting.String())
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	snap := reg.Snapshot()
	if hits, misses := snap.Counters["pdms.reform_cache.hits"], snap.Counters["pdms.reform_cache.misses"]; hits != workers*shapes || misses != shapes {
		t.Errorf("pdms.reform_cache hits %d, misses %d: want %d and %d", hits, misses, workers*shapes, shapes)
	}
	model, err := pdms.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.New(model.Spec(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for w := range got {
		for i, rewriting := range got[w] {
			text := shapeQuery(i, fmt.Sprintf("c%d_%d", w, i))
			q, err := parser.ParseQuery(text)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Reformulate(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := res.UCQ.String(); rewriting != want {
				t.Fatalf("%s:\n got %s\nwant %s", text, rewriting, want)
			}
		}
	}
}

// sharedPeers is the size of the swarm sharedSpec generates.
const sharedPeers = 24

// sharedSpec returns a swarm's mediator specification and an extension
// that changes the rewriting of every query shapeQuery poses.
func sharedSpec(t *testing.T) (spec, extension string) {
	t.Helper()
	s, err := swarm.Generate(swarm.Params{Peers: sharedPeers, Topology: swarm.SmallWorld, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// A new store at the deepest backbone peer reaches every peer's
	// rewriting, so the two generations are told apart by any query.
	return s.Mediator, fmt.Sprintf("storage Late.store(x, y) in %s(x, y)", swarm.PeerRel(sharedPeers-1))
}

// shapeQuery returns the query of shape i < 4·sharedPeers over constant c:
// a peer, the constant first or second in its atom, and a body of that atom
// alone or joined with the next peer's relation.
func shapeQuery(i int, c string) string {
	peer, constFirst, join := i%sharedPeers, i/sharedPeers%2 == 0, i/(2*sharedPeers)%2 == 1
	atom := fmt.Sprintf("%s(y, %q)", swarm.PeerRel(peer), c)
	if constFirst {
		atom = fmt.Sprintf("%s(%q, y)", swarm.PeerRel(peer), c)
	}
	if join {
		return fmt.Sprintf("q(y) :- %s, %s(y, z)", atom, swarm.PeerRel((peer+1)%sharedPeers))
	}
	return "q(y) :- " + atom
}
