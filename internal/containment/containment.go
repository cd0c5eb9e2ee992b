// Package containment implements conjunctive-query containment via
// containment mappings (the classical Chandra–Merlin technique) and
// redundancy elimination over unions of conjunctive queries.
//
// The reformulation engine uses containment to discard redundant rewritings
// (a produced conjunctive rewriting that is contained in another contributes
// no new certain answers), and the test suite uses it to compare reformulated
// queries against expected ones.
//
// For queries with comparison predicates the test is sound but not complete
// (completeness would require case analysis over linear orders, which is
// Π²ₚ-hard); a sound test is exactly what redundancy elimination needs: we
// only drop a rewriting when containment is certain.
package containment

import (
	"strconv"

	"repro/internal/constraints"
	"repro/internal/lang"
)

// Contains reports whether q2 contains q1 (q1 ⊆ q2): every answer of q1 on
// every instance is an answer of q2. Decided by searching for a containment
// mapping from q2 into q1 that preserves the head, and (when comparisons are
// present) checking that q1's constraints imply the image of q2's.
func Contains(q1, q2 lang.CQ) bool {
	return mapsInto(renameApart(q2), q1, !constraints.Satisfiable(q1.Comps))
}

// renameApart renames q's variables to _cm0, _cm1, … in order of first
// occurrence. A containment mapping treats the contained query's variables
// as rigid (they are the canonical-database constants), so sharing names
// across the two queries would corrupt the search. The names are plain
// numbers, keeping no part of the original: a suffix-preserving scheme could
// collide with the "#"-suffixed variables of the reformulation engine's
// rewritings.
func renameApart(q lang.CQ) lang.CQ {
	ren := lang.NewSubst()
	for i, v := range q.Vars() {
		ren[v.Name] = lang.Var("_cm" + strconv.Itoa(i))
	}
	return q.Apply(ren)
}

// mapsInto reports q1 ⊆ q2 for a q2 already renamed apart from q1; empty1
// says q1's comparisons are unsatisfiable.
func mapsInto(q2, q1 lang.CQ, empty1 bool) bool {
	if q1.Head.Arity() != q2.Head.Arity() {
		return false
	}
	// The mapping must send q2's head to q1's head.
	base, ok := lang.Match(q2.Head, q1.Head, nil)
	if !ok {
		// Heads may differ in predicate name when comparing rewritings of
		// the same logical query; retry ignoring the head predicate name.
		h2 := q2.Head
		h2.Pred = q1.Head.Pred
		base, ok = lang.Match(h2, q1.Head, nil)
		if !ok {
			return false
		}
	}
	if empty1 {
		return true // q1 is empty, contained in everything
	}
	return findMapping(q2.Body, q1.Body, base, func(s lang.Subst) bool {
		// Constraint side-condition: c(q1) must imply s(c(q2)).
		for _, c := range q2.Comps {
			if !constraints.Implies(q1.Comps, s.ApplyComparison(c)) {
				return false
			}
		}
		return true
	})
}

// findMapping searches for an extension of base mapping every atom of from
// onto some atom of onto (variables of onto are rigid), subject to accept.
func findMapping(from, onto []lang.Atom, base lang.Subst, accept func(lang.Subst) bool) bool {
	var rec func(i int, s lang.Subst) bool
	rec = func(i int, s lang.Subst) bool {
		if i == len(from) {
			return accept(s)
		}
		// Pass the original atom: Match applies s itself and only binds
		// variables of the un-substituted pattern, keeping target-side
		// variables rigid (pre-applying s here would let bound-to rigid
		// variables masquerade as bindable pattern variables).
		for _, tgt := range onto {
			if s2, ok := lang.Match(from[i], tgt, s); ok {
				if rec(i+1, s2) {
					return true
				}
			}
		}
		return false
	}
	return rec(0, base)
}

// RemoveRedundant drops every disjunct of u that is contained in another
// (retained) disjunct, returning a minimal equivalent union. Deterministic:
// earlier disjuncts win ties.
//
// Every disjunct is prepared once (renamed apart, comparisons checked,
// body predicates folded into a signature), and a pair is rejected from the
// signatures alone when the containing side has a body predicate the
// contained side lacks — no containment mapping can place that atom — so
// the quadratic loop only searches pairs that could succeed.
func RemoveRedundant(u lang.UCQ) lang.UCQ {
	ds := make([]disjunct, len(u.Disjuncts))
	for i, d := range u.Disjuncts {
		ds[i] = prepare(d)
	}
	var out lang.UCQ
	for i := range ds {
		redundant := false
		for j := range ds {
			if i == j || !ds[i].containedIn(&ds[j]) {
				continue
			}
			// Tie-break mutual containment by index.
			if i < j && ds[j].containedIn(&ds[i]) {
				continue
			}
			redundant = true
			break
		}
		if !redundant {
			out.Add(ds[i].cq)
		}
	}
	if out.Len() == 0 && u.Len() > 0 {
		out.Add(u.Disjuncts[0])
	}
	return out
}

// disjunct is a conjunctive query prepared for repeated containment tests
// on either side.
type disjunct struct {
	cq lang.CQ
	// apart is cq renamed apart: the form it takes as the containing side.
	apart lang.CQ
	// empty records that cq's comparisons are unsatisfiable, which makes cq
	// contained in every query of its arity.
	empty bool
	// sig has one bit set per body atom, chosen by hashing the atom's
	// predicate and arity.
	sig uint64
}

func prepare(q lang.CQ) disjunct {
	d := disjunct{cq: q, apart: renameApart(q), empty: !constraints.Satisfiable(q.Comps)}
	for _, a := range q.Body {
		d.sig |= 1 << (predHash(a) & 63)
	}
	return d
}

// predHash is FNV-1a over the atom's predicate name and arity.
func predHash(a lang.Atom) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(a.Pred); i++ {
		h = (h ^ uint64(a.Pred[i])) * 1099511628211
	}
	return (h ^ uint64(len(a.Args))) * 1099511628211
}

// containedIn reports d.cq ⊆ e.cq. A containment mapping sends every body
// atom of e onto an atom of d with the same predicate and arity, so a
// signature bit of e missing from d refutes the containment outright —
// unless d is empty, which no mapping is needed for.
func (d *disjunct) containedIn(e *disjunct) bool {
	if !d.empty && e.sig&^d.sig != 0 {
		return false
	}
	return mapsInto(e.apart, d.cq, d.empty)
}
