package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/ppl"
	"repro/internal/rel"
	"repro/internal/swarm"
)

// reformulateAnswers reformulates q under opts and evaluates the rewriting
// on data.
func reformulateAnswers(t *testing.T, n *ppl.PDMS, data *rel.Instance, q lang.CQ, opts core.Options) ([]rel.Tuple, core.Stats) {
	t.Helper()
	r, err := core.New(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Reformulate(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rel.EvalUCQ(out.UCQ, data)
	if err != nil {
		t.Fatal(err)
	}
	return rel.DistinctSorted(got), out.Stats
}

// comparePrunedUnpruned asserts the central soundness property of the
// deep-topology subtree pruning: the same query over the same PDMS answers
// identically with Options.NoPruneSubsumed off (pruning on, the default)
// and on (the seed behavior).
func comparePrunedUnpruned(t *testing.T, n *ppl.PDMS, data *rel.Instance, q lang.CQ) (pruned, unpruned core.Stats) {
	t.Helper()
	got, ps := reformulateAnswers(t, n, data, q, core.Options{})
	want, us := reformulateAnswers(t, n, data, q, core.Options{NoPruneSubsumed: true})
	if len(got) != len(want) {
		t.Fatalf("pruned %d answers, unpruned %d\npruned   %v\nunpruned %v\nquery %s",
			len(got), len(want), got, want, q)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("answer %d differs: pruned %v, unpruned %v", i, got[i], want[i])
		}
	}
	return ps, us
}

// TestPruningPreservesAnswersOnRandomPDMS runs the pruned-vs-unpruned
// differential over the same randomized workload corpus the chase-oracle
// property tests use: layered inclusion/definitional specs with random
// data, store dead ends included (the hopeless-predicate prune's natural
// prey).
func TestPruningPreservesAnswersOnRandomPDMS(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, dd := range []float64{0, 0.25} {
			seed, dd := seed, dd
			t.Run(fmt.Sprintf("seed=%d/dd=%.2f", seed, dd), func(t *testing.T) {
				t.Parallel()
				n, data, q := strata(t, swarm.Params{
					Topology:      swarm.Strata,
					Peers:         9,
					Diameter:      3,
					DefRatio:      dd,
					StoreCoverage: 0.6, // dead-end branches for the hopeless prune
					FactsPerStore: 3,
					DomainSize:    3,
					Seed:          seed,
				})
				comparePrunedUnpruned(t, n, data, q)
			})
		}
	}
}

// replicatedSpec builds a randomized chain-of-inclusions PDMS in which
// near-entry mappings are emitted in content-identical copies and some
// peers map in a decoy relation nothing stores — exactly the waste the
// duplicate-description and hopeless-predicate prunes remove. The query is
// a chain of length qlen over the entry relation.
func replicatedSpec(t *testing.T, peers, copies, qlen int, rng *rand.Rand) (*ppl.PDMS, *rel.Instance, lang.CQ) {
	t.Helper()
	var src strings.Builder
	for i := 0; i+1 < peers; i++ {
		n := 1
		if i < 3 {
			n = copies
		}
		for c := 0; c < n; c++ {
			fmt.Fprintf(&src, "include C%d:R(x, y) in C%d:R(x, y)\n", i+1, i)
		}
	}
	for i := 0; i < peers; i++ {
		if i == 0 || rng.Intn(4) == 0 {
			fmt.Fprintf(&src, "include D%d:R(x, y) in C%d:R(x, y)\n", i, i) // decoy: never stored
		}
		if i == peers-1 || rng.Intn(4) > 0 {
			fmt.Fprintf(&src, "storage S%d.r(x, y) in C%d:R(x, y)\n", i, i)
			for f := 0; f < 4; f++ {
				fmt.Fprintf(&src, "fact S%d.r(\"c%d\", \"c%d\")\n", i, rng.Intn(3), rng.Intn(3))
			}
		}
	}
	res, err := parser.Parse(src.String())
	if err != nil {
		t.Fatal(err)
	}
	var qb strings.Builder
	fmt.Fprintf(&qb, "q(x0, x%d) :- ", qlen)
	for a := 0; a < qlen; a++ {
		if a > 0 {
			qb.WriteString(", ")
		}
		fmt.Fprintf(&qb, "C0:R(x%d, x%d)", a, a+1)
	}
	q, err := parser.ParseQuery(qb.String())
	if err != nil {
		t.Fatal(err)
	}
	return res.PDMS, res.Data, q
}

// TestPruningPreservesAnswersOnReplicatedChains drives the differential
// over randomized replicated-mapping chains — the deep-topology shape the
// pruning exists for — including multi-atom (join) queries, so the
// rewriting is a genuine UCQ whose disjuncts multiply across copies.
func TestPruningPreservesAnswersOnReplicatedChains(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			peers := 4 + rng.Intn(4)
			copies := 2 + rng.Intn(2)
			qlen := 1 + rng.Intn(2)
			n, data, q := replicatedSpec(t, peers, copies, qlen, rng)
			ps, us := comparePrunedUnpruned(t, n, data, q)
			if ps.Nodes() > us.Nodes() {
				t.Fatalf("pruned tree larger: %d > %d", ps.Nodes(), us.Nodes())
			}
		})
	}
}

// TestPruningCutsReplicatedFixture is the measured regression fixture: on a
// fixed 8-peer chain with triplicated near-entry mappings and a planted
// decoy, both prune counters must fire and the node count must drop by at
// least 3x (the actual factor on this fixture is larger; 3x leaves slack
// for unrelated tree-shape changes without letting the prune silently
// regress to a no-op).
func TestPruningCutsReplicatedFixture(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, data, q := replicatedSpec(t, 8, 3, 1, rng)
	ps, us := comparePrunedUnpruned(t, n, data, q)
	if ps.PrunedSubsumed == 0 {
		t.Fatalf("replicated mappings but PrunedSubsumed = 0: %+v", ps)
	}
	if ps.PrunedEmpty == 0 {
		t.Fatalf("decoy planted but PrunedEmpty = 0: %+v", ps)
	}
	if us.PrunedSubsumed != 0 || us.PrunedEmpty != 0 {
		t.Fatalf("unpruned build reports prune counters: %+v", us)
	}
	if factor := float64(us.Nodes()) / float64(ps.Nodes()); factor < 3 {
		t.Fatalf("pruning factor %.2f < 3 (pruned %d, unpruned %d)", factor, ps.Nodes(), us.Nodes())
	}
}
