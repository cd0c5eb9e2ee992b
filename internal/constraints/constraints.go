// Package constraints implements conjunctions of comparison predicates
// (=, !=, <, <=, >, >=) over variables and constants, with decision
// procedures for satisfiability and implication and a projection operation.
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

import (
	"sort"
	"strings"

	"repro/internal/lang"
)

// Set is a conjunction of comparison predicates. The zero value is the empty
// (trivially true) conjunction, ready to use.
type Set struct {
	comps []lang.Comparison
}

// New returns a conjunction of the given comparisons.
func New(comps ...lang.Comparison) *Set {
	s := &Set{}
	s.Add(comps...)
	return s
}

// Add conjoins more comparisons.
func (s *Set) Add(comps ...lang.Comparison) {
	s.comps = append(s.comps, comps...)
}

// And returns a new conjunction s ∧ t. Either receiver may be nil (treated
// as the empty conjunction).
func (s *Set) And(t *Set) *Set {
	out := &Set{}
	if s != nil {
		out.comps = append(out.comps, s.comps...)
	}
	if t != nil {
		out.comps = append(out.comps, t.comps...)
	}
	return out
}

// Comparisons returns a copy of the conjuncts.
func (s *Set) Comparisons() []lang.Comparison {
	if s == nil {
		return nil
	}
	out := make([]lang.Comparison, len(s.comps))
	copy(out, s.comps)
	return out
}

// Len returns the number of conjuncts.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.comps)
}

// Apply returns a new conjunction with the substitution applied to every
// conjunct.
func (s *Set) Apply(sub lang.Subst) *Set {
	if s == nil {
		return &Set{}
	}
	return &Set{comps: sub.ApplyComparisons(s.comps)}
}

// String renders the conjunction deterministically.
func (s *Set) String() string {
	if s == nil || len(s.comps) == 0 {
		return "true"
	}
	parts := make([]string, len(s.comps))
	for i, c := range s.comps {
		parts[i] = c.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, " AND ")
}

// Satisfiable reports whether the conjunction has a model over a dense
// unbounded ordered domain.
func (s *Set) Satisfiable() bool {
	if s == nil || len(s.comps) == 0 {
		return true
	}
	_, ok := solve(s.comps)
	return ok
}

// Implies reports whether the conjunction entails c (that is, s ∧ ¬c is
// unsatisfiable). An unsatisfiable s implies everything.
func (s *Set) Implies(c lang.Comparison) bool {
	var comps []lang.Comparison
	if s != nil {
		comps = s.comps
	}
	neg := lang.Comparison{Op: c.Op.Negate(), L: c.L, R: c.R}
	_, ok := solve(append(append([]lang.Comparison{}, comps...), neg))
	return !ok
}

// Project returns the least subsuming conjunction of s over the given
// variables (plus constants): for every pair of kept terms it emits the
// strongest binary relation entailed by s. If s is unsatisfiable the result
// is an explicitly unsatisfiable conjunction. This realizes the footnote-3
// approximation in the paper (disjunctions arising from projection are
// approximated by the least subsuming conjunction).
func (s *Set) Project(keep []lang.Term) *Set {
	if s == nil || len(s.comps) == 0 {
		return &Set{}
	}
	if !s.Satisfiable() {
		f := Const("0")
		return New(lang.Comparison{Op: lang.OpNE, L: f, R: f})
	}
	// Candidate terms: kept variables and every constant mentioned.
	terms := make([]lang.Term, 0, len(keep))
	seen := map[lang.Term]bool{}
	for _, v := range keep {
		if v.IsVar() && !seen[v] {
			seen[v] = true
			terms = append(terms, v)
		}
	}
	for _, c := range s.comps {
		for _, t := range []lang.Term{c.L, c.R} {
			if t.IsConst() && !seen[t] {
				seen[t] = true
				terms = append(terms, t)
			}
		}
	}
	out := &Set{}
	for i := 0; i < len(terms); i++ {
		for j := i + 1; j < len(terms); j++ {
			a, b := terms[i], terms[j]
			if a.IsConst() && b.IsConst() {
				continue // relation between constants is intrinsic
			}
			switch {
			case s.Implies(lang.Comparison{Op: lang.OpEQ, L: a, R: b}):
				out.Add(lang.Comparison{Op: lang.OpEQ, L: a, R: b})
			case s.Implies(lang.Comparison{Op: lang.OpLT, L: a, R: b}):
				out.Add(lang.Comparison{Op: lang.OpLT, L: a, R: b})
			case s.Implies(lang.Comparison{Op: lang.OpGT, L: a, R: b}):
				out.Add(lang.Comparison{Op: lang.OpGT, L: a, R: b})
			default:
				if s.Implies(lang.Comparison{Op: lang.OpLE, L: a, R: b}) {
					out.Add(lang.Comparison{Op: lang.OpLE, L: a, R: b})
				} else if s.Implies(lang.Comparison{Op: lang.OpGE, L: a, R: b}) {
					out.Add(lang.Comparison{Op: lang.OpGE, L: a, R: b})
				}
				if s.Implies(lang.Comparison{Op: lang.OpNE, L: a, R: b}) {
					out.Add(lang.Comparison{Op: lang.OpNE, L: a, R: b})
				}
			}
		}
	}
	return out
}

// Const is a convenience re-export of lang.Const for callers of this package.
func Const(v string) lang.Term { return lang.Const(v) }
