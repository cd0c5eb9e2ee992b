package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/ppl"
	"repro/internal/rel"
	"repro/internal/swarm"
)

// strata generates the Section 5 strata spec p and returns it parsed: the
// PDMS, the peers' stored facts, and the query.
func strata(tb testing.TB, p swarm.Params) (*ppl.PDMS, *rel.Instance, lang.CQ) {
	tb.Helper()
	spec, err := swarm.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := parser.Parse(spec.OracleSource())
	if err != nil {
		tb.Fatal(err)
	}
	q, err := parser.ParseQuery(spec.Query)
	if err != nil {
		tb.Fatal(err)
	}
	return res.PDMS, res.Data, q
}

// TestReformulationMatchesOracleOnRandomPDMS is the paper's central
// soundness/completeness claim, property-tested: on random acyclic
// pure-inclusion PDMSs (Theorem 3.2(1) fragment) with random data, the
// reformulated query's answers equal the chase oracle's certain answers.
func TestReformulationMatchesOracleOnRandomPDMS(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			n, data, q := strata(t, swarm.Params{
				Topology:      swarm.Strata,
				Peers:         10,
				Diameter:      3,
				DefRatio:      0, // pure inclusions: PTIME fragment
				FactsPerStore: 3,
				DomainSize:    3,
				Seed:          seed,
			})
			compareWithOracle(t, n, data, q)
		})
	}
}

// TestReformulationMatchesOracleWithDefinitional covers the mixed GAV/LAV
// case in the PTIME fragment: random layered specs where the definitional
// mappings define TOP-layer relations (whose heads never appear on any
// RHS, satisfying Theorem 3.2's head-isolation condition) over a middle
// layer that LAV storage descriptions populate.
func TestReformulationMatchesOracleWithDefinitional(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			mids := []string{"M:A", "M:B", "M:C"}
			var src strings.Builder
			// LAV storage: each store is a join or copy over mid relations.
			for i := 0; i < 3; i++ {
				a := mids[rng.Intn(3)]
				b := mids[rng.Intn(3)]
				switch rng.Intn(3) {
				case 0:
					fmt.Fprintf(&src, "storage S%d.r(x, y) in %s(x, y)\n", i, a)
				case 1:
					fmt.Fprintf(&src, "storage S%d.r(x, z) in %s(x, y), %s(y, z)\n", i, a, b)
				default:
					fmt.Fprintf(&src, "storage S%d.r(x, y) in %s(y, x)\n", i, a)
				}
				for f := 0; f < 3; f++ {
					fmt.Fprintf(&src, "fact S%d.r(\"c%d\", \"c%d\")\n", i, rng.Intn(3), rng.Intn(3))
				}
			}
			// GAV tops: unions of chains over mids; top heads appear on no RHS.
			for i := 0; i < 2; i++ {
				for r := 0; r < 1+rng.Intn(2); r++ {
					a := mids[rng.Intn(3)]
					b := mids[rng.Intn(3)]
					fmt.Fprintf(&src, "define T:Top%d(x, z) :- %s(x, y), %s(y, z)\n", i, a, b)
				}
			}
			res, err := parser.Parse(src.String())
			if err != nil {
				t.Fatal(err)
			}
			q, err := parser.ParseQuery(fmt.Sprintf(`q(x, z) :- T:Top%d(x, z)`, rng.Intn(2)))
			if err != nil {
				t.Fatal(err)
			}
			if cl := res.PDMS.Classify(q); cl.Class != ppl.PTime {
				t.Fatalf("constructed spec not PTIME: %v\n%s", cl, src.String())
			}
			compareWithOracle(t, res.PDMS, res.Data, q)
		})
	}
}

// TestReformulationSoundOnCoNPSpecs: even outside the tractable fragment
// the algorithm must stay sound — every answer it produces is a certain
// answer (the chase still under-approximates soundly on these shapes when
// it succeeds).
func TestReformulationSoundOnCoNPSpecs(t *testing.T) {
	tested := 0
	for seed := int64(0); seed < 40 && tested < 8; seed++ {
		n, data, q := strata(t, swarm.Params{
			Topology:      swarm.Strata,
			Peers:         9,
			Diameter:      3,
			DefRatio:      0.5,
			FactsPerStore: 3,
			DomainSize:    3,
			Seed:          seed,
		})
		if cl := n.Classify(q); cl.Class != ppl.CoNP {
			continue
		}
		tested++
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Soundness needs only a sample of the (possibly huge) union.
			r, err := core.New(n, core.Options{MaxRewritings: 300, KeepRedundant: true})
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
			// Check soundness directly: every reformulated answer must
			// hold in the chased canonical instance. On these co-NP shapes
			// (definitional heads feeding inclusion RHSs) the chase is not
			// guaranteed to terminate — acyclic inclusions do not imply
			// weak acyclicity once definitional edges are added — so cap
			// the rounds tightly and skip seeds that hit the cap.
			inst, err := chase.Chase(n, data, chase.Options{MaxRounds: 30})
			if err != nil {
				t.Skipf("chase did not converge on this seed: %v", err)
			}
			canon, err := rel.EvalCQ(q, inst)
			if err != nil {
				t.Fatal(err)
			}
			have := map[string]bool{}
			for _, tup := range canon {
				have[tup.Key()] = true
			}
			for _, tup := range got {
				if !have[tup.Key()] {
					t.Fatalf("unsound answer %v not derivable in canonical instance", tup)
				}
			}
		})
	}
	if tested == 0 {
		t.Skip("no co-NP seeds found at this size")
	}
}

func compareWithOracle(t *testing.T, n *ppl.PDMS, data *rel.Instance, q lang.CQ) {
	t.Helper()
	r, err := core.New(n, core.Options{})
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
	want, err := chase.CertainAnswers(n, data, q, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, got, want, q, out.UCQ)
}

// sameAnswers fails t unless the reformulation's answers got are the
// certain answers want, as sets.
func sameAnswers(t *testing.T, got, want []rel.Tuple, q lang.CQ, u lang.UCQ) {
	t.Helper()
	rel.SortTuples(got)
	rel.SortTuples(want)
	if len(got) != len(want) {
		t.Fatalf("answers differ:\n got %v\nwant %v\nquery %s\nUCQ:\n%v",
			got, want, q, u)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("answers differ at %d:\n got %v\nwant %v", i, got, want)
		}
	}
}

// TestRedundancyEliminationPreservesSemantics: RemoveRedundant must not
// change the UCQ's answers on random instances.
func TestRedundancyEliminationPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		n, data, q := strata(t, swarm.Params{
			Topology:      swarm.Strata,
			Peers:         8,
			Diameter:      2,
			DefRatio:      0.3,
			FactsPerStore: 4,
			DomainSize:    3,
			Seed:          rng.Int63(),
		})
		rKeep, err := core.New(n, core.Options{KeepRedundant: true})
		if err != nil {
			t.Fatal(err)
		}
		outKeep, err := rKeep.Reformulate(q)
		if err != nil {
			t.Fatal(err)
		}
		rMin, err := core.New(n, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		outMin, err := rMin.Reformulate(q)
		if err != nil {
			t.Fatal(err)
		}
		if outMin.UCQ.Len() > outKeep.UCQ.Len() {
			t.Fatalf("minimized union larger: %d > %d", outMin.UCQ.Len(), outKeep.UCQ.Len())
		}
		a, err := rel.EvalUCQ(outKeep.UCQ, data)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rel.EvalUCQ(outMin.UCQ, data)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("redundancy elimination changed answers: %v vs %v", a, b)
		}
	}
}

// TestRewritingsAreContainedInEachOtherConsistently: sanity on the
// containment engine against extraction — every emitted disjunct must be
// satisfiable and refer only to stored relations.
func TestRewritingsWellFormed(t *testing.T) {
	n, _, q := strata(t, swarm.Params{
		Topology: swarm.Strata, Peers: 12, Diameter: 3, DefRatio: 0.25, Seed: 17,
	})
	r, err := core.New(n, core.Options{KeepRedundant: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Reformulate(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range out.UCQ.Disjuncts {
		if !d.IsSafe() {
			t.Fatalf("unsafe rewriting %v", d)
		}
		for _, a := range d.Body {
			if !n.IsStored(a.Pred) {
				t.Fatalf("rewriting %v references non-stored %s", d, a.Pred)
			}
		}
		// A rewriting must never be trivially self-contradictory.
		if containment.Contains(d, d) != true {
			t.Fatalf("containment reflexivity broken for %v", d)
		}
	}
}

// TestFreshVariablesDoNotCollide: rewritings from deep trees must not
// accidentally share don't-care variables across disjuncts in a way that
// changes semantics — evaluate each disjunct independently and as a union.
func TestFreshVariablesDoNotCollide(t *testing.T) {
	n, data, q := strata(t, swarm.Params{
		Topology: swarm.Strata, Peers: 10, Diameter: 3, DefRatio: 0, FactsPerStore: 4, DomainSize: 3, Seed: 23,
	})
	r, err := core.New(n, core.Options{KeepRedundant: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Reformulate(q)
	if err != nil {
		t.Fatal(err)
	}
	union, err := rel.EvalUCQ(out.UCQ, data)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range out.UCQ.Disjuncts {
		rows, err := rel.EvalCQ(d, data)
		if err != nil {
			t.Fatal(err)
		}
		for _, tup := range rows {
			seen[tup.Key()] = true
		}
	}
	if len(seen) != len(union) {
		t.Fatalf("per-disjunct union %d != EvalUCQ %d", len(seen), len(union))
	}
}

// judge reformulates q under opts and checks its answers against the
// chase: equal to the certain answers when (n, q) is in the tractable
// fragment, a subset of the canonical instance's answers otherwise.
func judge(t *testing.T, n *ppl.PDMS, data *rel.Instance, q lang.CQ, opts core.Options) core.Stats {
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
	if n.Classify(q).Class == ppl.PTime {
		want, err := chase.CertainAnswers(n, data, q, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, got, want, q, out.UCQ)
		return out.Stats
	}
	inst, err := chase.Chase(n, data, chase.Options{MaxRounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := rel.EvalCQ(q, inst)
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, tup := range canon {
		have[tup.Key()] = true
	}
	for _, tup := range got {
		if !have[tup.Key()] {
			t.Fatalf("unsound answer %v: not in the canonical instance's %v", tup, canon)
		}
	}
	return out.Stats
}

// TestUnsatPruningNeutralWithoutComparisons: on comparison-free workloads
// the constraint machinery (unsatisfiable-label pruning during
// construction, unsatisfiable-rewriting discards during extraction) must
// never fire, and the answers must be the chase's.
func TestUnsatPruningNeutralWithoutComparisons(t *testing.T) {
	n, data, q := strata(t, swarm.Params{
		Topology: swarm.Strata, Peers: 12, Diameter: 3, DefRatio: 0.25, FactsPerStore: 3, DomainSize: 3, Seed: 4,
	})
	st := judge(t, n, data, q, core.Options{})
	if st.PrunedUnsat != 0 || st.DiscardUnsat != 0 {
		t.Fatalf("constraint pruning fired without comparisons: %+v", st)
	}
}

// TestMemoFiresOnCyclicSpec pins the unproductive-memo under the default
// options. The spec's inclusions form a cycle over R, so the same goal
// contexts recur under growing ban sets and three of them are answered
// from the memo: 57 nodes, where building each again makes 66. The spec
// is outside the tractable fragment (Classify calls it undecidable), so
// soundness against the chase's canonical instance is the judge.
func TestMemoFiresOnCyclicSpec(t *testing.T) {
	src := `
include P0:R(x, y) in P1:R(y, x)
include P2:R(x, y), P1:R(y, z) in P0:R(x, z)
include P1:R(x, y), P1:R(y, z) in P2:R(x, z)
storage S0.s(x, y) in P0:R(x, y)
fact S0.s("a", "b")
fact S0.s("b", "a")
fact S0.s("b", "c")
fact S0.s("c", "c")
`
	res, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery(`q(x, z) :- P2:R(x, y), P2:R(y, z)`)
	if err != nil {
		t.Fatal(err)
	}
	if st := judge(t, res.PDMS, res.Data, q, core.Options{}); st.MemoHits != 3 || st.Nodes() != 57 {
		t.Fatalf("stats = %+v (nodes %d), want 3 memo hits, 57 nodes", st, st.Nodes())
	}
}

// TestMemoFiresOnDeadEndWorkload: with reduced store coverage, repeated
// dead-end patterns produce memo hits once the hopeless-predicate prune
// (which otherwise kills them first, leaving a 4-node tree) is off: 13 hits
// and 120 nodes, where building each again makes 300. The memo key is the
// full expansion context (self label, siblings, the variables the context
// needs), so contexts must actually recur for hits: pure-inclusion
// workloads (dd=0) have single-child rule nodes below the query, whose
// contexts repeat across replicated paths. The key names no parent goal, so
// a dead context found under one parent answers for every other.
func TestMemoFiresOnDeadEndWorkload(t *testing.T) {
	n, data, q := strata(t, swarm.Params{
		Topology: swarm.Strata, Peers: 20, Diameter: 5, DefRatio: 0, StoreCoverage: 0.4, Seed: 6,
	})
	if st := judge(t, n, data, q, core.Options{NoPruneSubsumed: true}); st.MemoHits != 13 || st.Nodes() != 120 {
		t.Fatalf("stats = %+v (nodes %d), want 13 memo hits, 120 nodes", st, st.Nodes())
	}
}

// TestMemoPreservesAnswersOnDeadEndWorkload: on a workload with storeless
// bottom relations, the answers are the chase's whether the dead ends are
// pruned as hopeless or left to the memo.
func TestMemoPreservesAnswersOnDeadEndWorkload(t *testing.T) {
	n, data, q := strata(t, swarm.Params{
		Topology: swarm.Strata, Peers: 16, Diameter: 3, DefRatio: 0, StoreCoverage: 0.5,
		FactsPerStore: 3, DomainSize: 3, Seed: 9,
	})
	judge(t, n, data, q, core.Options{})
	judge(t, n, data, q, core.Options{NoPruneSubsumed: true})
}
