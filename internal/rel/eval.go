package rel

import (
	"fmt"
	"slices"

	"repro/internal/lang"
)

// EvalCQ evaluates a conjunctive query over the instance with set semantics
// and returns the distinct head tuples in column-wise (Compare) order.
// Comparison predicates are applied as filters once both sides are bound
// (and re-checked at the end). The query must be safe; unsafe queries
// return an error.
func EvalCQ(q lang.CQ, ins *Instance) ([]Tuple, error) {
	if !q.IsSafe() {
		return nil, fmt.Errorf("rel: unsafe query %s", q)
	}
	seen := map[string]bool{}
	var out []Tuple
	err := evalBody(q, ins, func(s lang.Subst) error {
		head := make(Tuple, len(q.Head.Args))
		for i, a := range q.Head.Args {
			t := s.Apply(a)
			if t.IsVar() {
				return fmt.Errorf("rel: unbound head variable %s in %s", t, q)
			}
			head[i] = t.Name
		}
		if k := head.Key(); !seen[k] {
			seen[k] = true
			out = append(out, head)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.SortFunc(out, Compare)
	return out, nil
}

// evalBody enumerates every substitution satisfying the query body and
// comparisons, invoking yield for each. It orders comparisons after the
// atoms that bind their variables (checked lazily: a comparison is applied
// as soon as it becomes ground, all are verified at the end).
func evalBody(q lang.CQ, ins *Instance, yield func(lang.Subst) error) error {
	var rec func(i int, s lang.Subst) error
	rec = func(i int, s lang.Subst) error {
		// Prune on any ground comparison that fails.
		for _, c := range q.Comps {
			g := s.ApplyComparison(c)
			if g.L.IsConst() && g.R.IsConst() && !g.Op.EvalConst(g.L, g.R) {
				return nil
			}
		}
		if i == len(q.Body) {
			// All atoms matched; comparisons must now be fully ground.
			for _, c := range q.Comps {
				g := s.ApplyComparison(c)
				if g.L.IsVar() || g.R.IsVar() {
					return fmt.Errorf("rel: comparison %s not bound by body in %s", c, q)
				}
			}
			return yield(s)
		}
		atom := q.Body[i]
		r := ins.Relation(atom.Pred)
		if r == nil {
			return nil // empty relation: no matches
		}
		if r.arity != atom.Arity() {
			return fmt.Errorf("rel: atom %s arity %d, relation has %d", atom, atom.Arity(), r.arity)
		}
	next:
		for _, tup := range r.Tuples() {
			s2 := s.Clone()
			for j, arg := range atom.Args {
				bound := s2.Apply(arg)
				if bound.IsConst() {
					if bound.Name != tup[j] {
						continue next
					}
					continue
				}
				s2[bound.Name] = lang.Const(tup[j])
			}
			if err := rec(i+1, s2); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, lang.NewSubst())
}

// EvalUCQ evaluates a union of conjunctive queries, returning the distinct
// union of the disjuncts' answers, sorted.
func EvalUCQ(u lang.UCQ, ins *Instance) ([]Tuple, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	groups := make([][]Tuple, len(u.Disjuncts))
	for i, q := range u.Disjuncts {
		rows, err := EvalCQ(q, ins)
		if err != nil {
			return nil, err
		}
		groups[i] = rows
	}
	return DistinctSorted(groups...), nil
}

// EvalDatalog computes the least fixpoint of the (non-recursive or
// recursive) datalog program given by rules, starting from base, using
// semi-naive evaluation. It returns a new instance containing base plus all
// derived facts. Rules may use comparison predicates in their bodies.
func EvalDatalog(rules []lang.CQ, base *Instance) (*Instance, error) {
	for _, r := range rules {
		if !r.IsSafe() {
			return nil, fmt.Errorf("rel: unsafe rule %s", r)
		}
	}
	total := base.Clone()
	// delta holds the facts derived in the previous round.
	delta := base.Clone()
	for round := 0; ; round++ {
		// Single-shard: per-round deltas are scanned whole, so the
		// sharded layout's routing would be pure overhead.
		next := NewInstanceSharded(1)
		for _, rule := range rules {
			// Semi-naive: at least one body atom must match the delta.
			for pivot := range rule.Body {
				if delta.Relation(rule.Body[pivot].Pred) == nil {
					continue
				}
				err := evalBodyPivot(rule, total, delta, pivot, func(s lang.Subst) error {
					head := s.ApplyAtom(rule.Head)
					tup := make(Tuple, len(head.Args))
					for i, a := range head.Args {
						if a.IsVar() {
							return fmt.Errorf("rel: unbound head var in %s", rule)
						}
						tup[i] = a.Name
					}
					if r := total.Relation(head.Pred); r == nil || !r.Contains(tup) {
						if _, err := next.Add(head.Pred, tup); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return nil, err
				}
			}
		}
		if next.Size() == 0 {
			return total, nil
		}
		for _, pred := range next.Relations() {
			for _, t := range next.Relation(pred).Tuples() {
				if _, err := total.Add(pred, t); err != nil {
					return nil, err
				}
			}
		}
		delta = next
	}
}

// evalBodyPivot is evalBody where body atom `pivot` ranges over delta and
// the rest over total.
func evalBodyPivot(q lang.CQ, total, delta *Instance, pivot int, yield func(lang.Subst) error) error {
	var rec func(i int, s lang.Subst) error
	rec = func(i int, s lang.Subst) error {
		for _, c := range q.Comps {
			g := s.ApplyComparison(c)
			if g.L.IsConst() && g.R.IsConst() && !g.Op.EvalConst(g.L, g.R) {
				return nil
			}
		}
		if i == len(q.Body) {
			for _, c := range q.Comps {
				g := s.ApplyComparison(c)
				if g.L.IsVar() || g.R.IsVar() {
					return fmt.Errorf("rel: comparison %s not bound by body in %s", c, q)
				}
			}
			return yield(s)
		}
		atom := q.Body[i]
		src := total
		if i == pivot {
			src = delta
		}
		r := src.Relation(atom.Pred)
		if r == nil {
			return nil
		}
		if r.arity != atom.Arity() {
			return fmt.Errorf("rel: atom %s arity %d, relation has %d", atom, atom.Arity(), r.arity)
		}
	next:
		for _, tup := range r.Tuples() {
			s2 := s.Clone()
			for j, arg := range atom.Args {
				bound := s2.Apply(arg)
				if bound.IsConst() {
					if bound.Name != tup[j] {
						continue next
					}
					continue
				}
				s2[bound.Name] = lang.Const(tup[j])
			}
			if err := rec(i+1, s2); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, lang.NewSubst())
}
