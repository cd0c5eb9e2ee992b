// Package constraints decides satisfiability and implication for
// conjunctions of comparison predicates (=, !=, <, <=, >, >=) over variables
// and constants.
//
// These are the constraint labels c(n) of Section 4.2 of the paper: as the
// rule-goal tree is built, comparison predicates from the query, storage
// descriptions and definitional mappings are accumulated; a node whose label
// is unsatisfiable is a dead end and is pruned.
//
// The domain is treated as a dense, unbounded total order (the standard
// assumption for comparison predicates; constants are ordered numerically
// when both sides parse as numbers and lexicographically otherwise). This is
// the safe direction for pruning: the solver may report "satisfiable" for a
// conjunction that is unsatisfiable over a discrete domain, but never the
// reverse, so no valid rewriting is ever discarded.
package constraints

import "repro/internal/lang"

// Satisfiable reports whether the conjunction of comps has a model over a
// dense unbounded ordered domain. The empty conjunction is true.
func Satisfiable(comps []lang.Comparison) bool {
	return len(comps) == 0 || solve(comps)
}

// Implies reports whether the conjunction of comps entails c (that is,
// comps ∧ ¬c is unsatisfiable). An unsatisfiable conjunction implies
// everything. comps is not modified.
func Implies(comps []lang.Comparison, c lang.Comparison) bool {
	neg := lang.Comparison{Op: c.Op.Negate(), L: c.L, R: c.R}
	return !solve(append(comps[:len(comps):len(comps)], neg))
}
