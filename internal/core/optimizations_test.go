package core

import (
	"testing"

	"repro/internal/constraints"
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

// TestUnsatLabelKillsConflictingGoal: every expansion of A:R carries a
// range constraint incompatible with the query's, so A:R is a dead end
// found during construction: its two expansions are pruned by their
// unsatisfiable labels and the tree stops at 3 nodes.
func TestUnsatLabelKillsConflictingGoal(t *testing.T) {
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

// TestMemoSkipsDeadEndsUnderComparisons: B:S(x) is a dead end below the
// first rule, whose x < 5 contradicts the storage description's x > 10,
// and a live goal below the second rule, whose context is otherwise the
// same. The memo key leaves out the constraint label, so the dead end must
// not be recorded: answering the second goal from the memo lost the
// certain answer (20).
func TestMemoSkipsDeadEndsUnderComparisons(t *testing.T) {
	src := `
define A:R(x) :- B:S(x), x < 5
define A:R(x) :- B:S(x)
storage S.s(x) in B:S(x), x > 10
fact S.s("20")
`
	rows, out := oracleCheck(t, src, `q(x) :- A:R(x)`, Options{})
	if len(rows) != 1 || out.Stats.MemoHits != 0 {
		t.Fatalf("rows %v, stats %+v; want the certain answer (20) and no memo hit", rows, out.Stats)
	}
}

// TestExtractionDropsUnsatisfiableRewriting pins extraction's
// satisfiability check. Each storage description carries a range that the
// other contradicts, and no goal node sees both, so the tree prunes
// nothing: only extraction, which gathers every comparison of a candidate
// rewriting, can tell that q(x) :- S1.r(x), S2.s(x), x < 5, x > 7 has no
// answer. The answers are empty either way, so this test reads the
// rewritings.
func TestExtractionDropsUnsatisfiableRewriting(t *testing.T) {
	src := `
storage S1.r(x) in A:R(x), x < 5
storage S2.s(x) in A:S(x), x > 7
fact S1.r("3")
fact S2.s("9")
`
	rows, out := oracleCheck(t, src, `q(x) :- A:R(x), A:S(x)`, Options{})
	if len(rows) != 0 {
		t.Fatalf("rows = %v, want none (ranges disjoint)", rows)
	}
	for _, d := range out.UCQ.Disjuncts {
		if !constraints.Satisfiable(d.Comps) {
			t.Errorf("unsatisfiable rewriting kept: %s", d)
		}
	}
	if out.UCQ.Len() != 0 || out.Stats.DiscardUnsat != 1 {
		t.Fatalf("%d rewritings, %d discarded as unsatisfiable; want 0 and 1", out.UCQ.Len(), out.Stats.DiscardUnsat)
	}
}
