package core

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/ppl"
	"repro/internal/rel"
	"repro/internal/workload"
)

// The Section 4.3 optimizations always run, so each test here judges the
// default build against the chase and pins the optimization's counter and
// node count on a specification built to make it fire.

// TestUselessPathRuleSkipsAndPreservesAnswers reproduces the Section 4.3
// motif: p1 appears in a single inclusion description V ⊆ p1, p2 and p2 is
// replicated in many views. The sibling p2 need not be expanded. Priority
// expansion makes the rule independent of body order: p1 (one description)
// is expanded first even when it comes second, so both orders build the
// same 8-node tree (document order would build 24 nodes for the reversed
// query).
func TestUselessPathRuleSkipsAndPreservesAnswers(t *testing.T) {
	src := `
storage S.v(x, y) in A:P1(x, s), A:P2(s, y)
storage S.w1(s, y) in A:P2(s, y)
storage S.w2(s, y) in A:P2(s, y)
storage S.w3(s, y) in A:P2(s, y)
fact S.v("a", "b")
fact S.w1("k", "b")
`
	for _, query := range []string{
		`q(x, y) :- A:P1(x, s), A:P2(s, y)`,
		`q(x, y) :- A:P2(s, y), A:P1(x, s)`,
	} {
		rows, out := oracleCheck(t, src, query, Options{})
		if len(rows) != 1 {
			t.Fatalf("%s: rows = %v", query, rows)
		}
		if out.Stats.UselessSkipped != 1 || out.Stats.Nodes() != 8 {
			t.Fatalf("%s: stats = %+v (nodes %d), want 1 useless skip, 8 nodes", query, out.Stats, out.Stats.Nodes())
		}
	}
}

// TestUselessPathOracleAgreement: with the rule on, answers still equal the
// chase oracle's certain answers.
func TestUselessPathOracleAgreement(t *testing.T) {
	src := `
storage S.v(x, y) in A:P1(x, s), A:P2(s, y)
storage S.w1(s, y) in A:P2(s, y)
storage S.w2(s, y) in A:P2(s, y)
fact S.v("a", "b")
fact S.w1("k", "b")
fact S.w2("k", "c")
`
	oracleCheck(t, src, `q(x, y) :- A:P1(x, s), A:P2(s, y)`, Options{})
}

// TestPropagateUpKillsConflictingGoal: every expansion of A:R carries a
// range constraint incompatible with the query's, so A:R is a dead end
// found during construction: its two expansions are pruned by their
// unsatisfiable labels and the tree stops at 3 nodes.
func TestPropagateUpKillsConflictingGoal(t *testing.T) {
	src := `
storage S.low(x) in A:R(x), x < 10
storage S.mid(x) in A:R(x), x < 50
fact S.low("5")
fact S.mid("20")
`
	rows, out := oracleCheck(t, src, `q(x) :- A:R(x), x > 90`, Options{})
	if len(rows) != 0 {
		t.Fatalf("rows = %v, want none (ranges disjoint)", rows)
	}
	if st := out.Stats; st.PrunedUnsat != 2 || st.DeadEnds != 1 || st.Nodes() != 3 {
		t.Fatalf("stats = %+v (nodes %d), want 2 pruned, 1 dead end, 3 nodes", st, st.Nodes())
	}
}

// judge reformulates q under opts and checks its answers against the
// chase: equal to the certain answers when (n, q) is in the tractable
// fragment, a subset of the canonical instance's answers otherwise.
func judge(t *testing.T, n *ppl.PDMS, data *rel.Instance, q lang.CQ, opts Options) Stats {
	t.Helper()
	r, err := New(n, opts)
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
		assertSameTuples(t, got, want, "reformulation vs chase oracle")
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

// TestPropagateUpNeutralWithoutComparisons: on comparison-free workloads
// the constraint machinery (label pruning, upward propagation) must never
// fire, and the answers must be the chase's.
func TestPropagateUpNeutralWithoutComparisons(t *testing.T) {
	w, err := workload.Generate(workload.Params{
		Peers: 12, Diameter: 3, DefRatio: 0.25, FactsPerStore: 3, DomainSize: 3, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := judge(t, w.PDMS, w.Data, w.Query, Options{})
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
	if st := judge(t, res.PDMS, res.Data, q, Options{}); st.MemoHits != 3 || st.Nodes() != 57 {
		t.Fatalf("stats = %+v (nodes %d), want 3 memo hits, 57 nodes", st, st.Nodes())
	}
}

// TestMemoFiresOnDeadEndWorkload: with reduced store coverage, repeated
// dead-end patterns produce memo hits once the hopeless-predicate prune
// (which otherwise kills them first, leaving a 4-node tree) is off: 18 hits
// and 156 nodes, where building each again makes 300. The memo key is the
// full expansion context (parent label, self label, siblings), so contexts
// must actually recur for hits: pure-inclusion workloads (dd=0) have
// single-child rule nodes below the query, whose contexts repeat across
// replicated paths.
func TestMemoFiresOnDeadEndWorkload(t *testing.T) {
	w, err := workload.Generate(workload.Params{
		Peers: 20, Diameter: 5, DefRatio: 0, StoreCoverage: 0.4, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := judge(t, w.PDMS, w.Data, w.Query, Options{NoPruneSubsumed: true}); st.MemoHits != 18 || st.Nodes() != 156 {
		t.Fatalf("stats = %+v (nodes %d), want 18 memo hits, 156 nodes", st, st.Nodes())
	}
}

// TestMemoPreservesAnswersOnDeadEndWorkload: on a workload with storeless
// bottom relations, the answers are the chase's whether the dead ends are
// pruned as hopeless or left to the memo.
func TestMemoPreservesAnswersOnDeadEndWorkload(t *testing.T) {
	w, err := workload.Generate(workload.Params{
		Peers: 16, Diameter: 3, DefRatio: 0, StoreCoverage: 0.5,
		FactsPerStore: 3, DomainSize: 3, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	judge(t, w.PDMS, w.Data, w.Query, Options{})
	judge(t, w.PDMS, w.Data, w.Query, Options{NoPruneSubsumed: true})
}
