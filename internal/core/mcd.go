package core

import "slices"

// This file forms MiniCon descriptions (MCDs) — the core of LAV-style
// answering-queries-using-views (Pottinger & Halevy, VLDB J. 2001) — in the
// form the PDMS reformulation algorithm needs for its inclusion expansions
// (Section 4.2, step 2, case 2 of the paper).
//
// Given a conjunction of goal atoms (the children of a rule node), a target
// goal, and a view V(Ā) ⊆ body, an MCD records that an atom over V covers
// the target goal and possibly some of its sibling ("uncle") goals, along
// with the variable bindings that usage induces.
//
// The mapping underlying an MCD sends goal variables to view terms; the
// view side is rigid. Two view HEAD variables may be equated (that is a
// selection over the view's output, expressible by repeating a variable in
// the V-atom), and a head variable may be bound to a constant; existential
// view variables may never be equated with anything — the view does not
// entail such equalities about its witnesses, and assuming them is exactly
// the unsoundness MiniCon's conditions rule out. The MCD property: whenever
// a goal variable maps to an existential view variable, every goal
// mentioning that variable must be covered by the same MCD; variables the
// surrounding context needs (the "required" set) must map to head variables
// or constants.
//
// View terms in the mapping are the view's compiled terms: its variables
// are the view-local ids 0..len(names)-1, apart from the builder's, and
// only a comparison over an unexposed witness ever needs them renamed into
// the builder's variables.

// mcd is a MiniCon description: using the view covers the goals in covered
// (indexes into the goal conjunction, ascending) via the atom, under the
// exported bindings (goal-variable equalities and constant bindings the
// usage forces on the rest of the rewriting) and the comparison predicates
// carried over from the view under the mapping.
type mcd struct {
	covered []int
	atom    atom
	export  []binding
	comps   []comparison
}

// former is the scratch state of one formMCDs call. The mapping is two
// stacks truncated on backtracking: bind sends goal variables to view terms,
// and uf is a union-find over view head variables and constants (an entry
// gives a variable its parent; constants are always roots).
type former struct {
	view     *view
	goals    []*node
	required []term
	covered  []bool
	bind     []binding
	uf       []binding
	// repr, dc and exp are emit's scratch: a goal representative per view
	// variable class, a don't-care variable per class without one, and the
	// export under construction.
	repr, dc, exp []binding
	// base is the builder id of the view's variable 0 once the view has
	// been renamed apart (noTerm until a comparison needs it), start the
	// first of this call's MCDs on the builder's stack.
	base  term
	start int
}

// lookup returns the latest binding of v on stack s.
func lookup(s []binding, v term) (term, bool) {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i].v == v {
			return s[i].t, true
		}
	}
	return noTerm, false
}

// dcStem is the name stem of a don't-care variable.
var dcStem = []string{"dc"}

// formMCDs computes all MCDs for goal target with respect to its sibling
// conjunction goals and the view, pushing them onto b.mcds; they are
// b.mcds[start:end]. required lists the variables the context outside the
// goals needs (their rule node's need): they must map to view head
// variables or constants.
func (b *builder) formMCDs(goals []*node, target *node, required []term, v *view) (start, end int) {
	f := &b.f
	f.view, f.goals, f.required, f.base = v, goals, required, noTerm
	f.covered = f.covered[:0]
	ti := 0
	for i, g := range goals {
		f.covered = append(f.covered, false)
		if g == target {
			ti = i
		}
	}
	f.start = len(b.mcds)
	for bi := range v.body {
		if v.body[bi].pred != target.label.pred {
			continue
		}
		f.bind, f.uf = f.bind[:0], f.uf[:0]
		if f.unifyAtom(target.label, v.body[bi]) {
			f.covered[ti] = true
			b.close()
			f.covered[ti] = false
		}
	}
	return f.start, len(b.mcds)
}

// resolve returns the class representative of a view term.
func (f *former) resolve(t term) term {
	for t.isVar() {
		p, ok := lookup(f.uf, t)
		if !ok || p == t {
			return t
		}
		t = p
	}
	return t
}

// isHead reports whether view term t is a head variable or a constant.
func (f *former) isHead(t term) bool { return !t.isVar() || f.view.headVar[t] }

// union merges two classes (both must be head variables or constants);
// reports false when the merge is inconsistent (two distinct constants).
func (f *former) union(a, c term) bool {
	ra, rc := f.resolve(a), f.resolve(c)
	if ra == rc {
		return true
	}
	if !ra.isVar() && !rc.isVar() {
		return false
	}
	if !rc.isVar() {
		ra, rc = rc, ra
	}
	// ra is the new root (constant preferred).
	f.uf = append(f.uf, binding{rc, ra})
	return true
}

// unifyAtom extends the mapping so that goal maps onto view atom va; the
// view side is rigid up to head-variable equating. Callers truncate the
// mapping's stacks before branching.
func (f *former) unifyAtom(goal, va atom) bool {
	if goal.pred != va.pred || len(goal.args) != len(va.args) {
		return false
	}
	for i, g := range goal.args {
		v := f.resolve(va.args[i])
		if !g.isVar() {
			// The goal's constant constrains view term v: a constant must
			// equal it, a head variable selects on it, and an existential
			// witness cannot be constrained.
			if !(v == g || v.isVar() && f.view.headVar[v] && f.union(v, g)) {
				return false
			}
			continue
		}
		prev, ok := lookup(f.bind, g)
		if !ok {
			f.bind = append(f.bind, binding{g, v})
			continue
		}
		// The two view terms must be equal: legitimate only when both are
		// head variables or constants (selection over the view's output);
		// an existential variable is equal only to itself.
		if prev = f.resolve(prev); prev != v && !(f.isHead(prev) && f.isHead(v) && f.union(prev, v)) {
			return false
		}
	}
	return true
}

// recoverable reports whether goal variable x is exposed by the view head
// (or grounded to a constant) under the mapping.
func (f *former) recoverable(x term) bool {
	t, ok := lookup(f.bind, x)
	return !ok || f.isHead(f.resolve(t)) // unbound: untouched by this view
}

// close extends the covered set until the MCD property holds, branching
// over choices of view atoms for goals that must be pulled in, and emits
// every consistent completion.
func (b *builder) close() {
	f := &b.f
	for gi, cov := range f.covered {
		if !cov {
			continue
		}
		goal := f.goals[gi].label
		for i, x := range goal.args {
			if !goal.firstVar(i) || f.recoverable(x) {
				continue
			}
			// x maps to an existential witness. It must not be required …
			if slices.Contains(f.required, x) {
				return
			}
			// … and every goal mentioning x must be covered by this MCD.
			// If x occurs only inside the covered set, it is a join
			// internal to the view and needs no action.
			for gj, g := range f.goals {
				if f.covered[gj] || !g.label.has(x) {
					continue
				}
				for bi := range f.view.body {
					if f.view.body[bi].pred != g.label.pred {
						continue
					}
					nb, nu := len(f.bind), len(f.uf)
					if f.unifyAtom(g.label, f.view.body[bi]) {
						f.covered[gj] = true
						b.close()
						f.covered[gj] = false
					}
					f.bind, f.uf = f.bind[:nb], f.uf[:nu]
				}
				return // dispatched (or no unifiable view atom: dead branch)
			}
		}
	}
	b.emitMCD()
}

// emitMCD materializes the MCD of the current mapping — the covering atom
// over the view predicate, the export substitution over goal variables, and
// the instantiated view comparisons — and pushes it unless an equal MCD of
// this call precedes it.
func (b *builder) emitMCD() {
	f := &b.f
	// Representative goal term per view-variable class, so the atom and
	// the export expose goal variables where possible.
	f.repr, f.dc, f.exp = f.repr[:0], f.dc[:0], f.exp[:0]
	f.eachBound(func(x, t term) bool {
		if _, ok := lookup(f.repr, t); t.isVar() && !ok {
			f.repr = append(f.repr, binding{t, x})
		}
		return true
	})
	// Covering atom: one argument per view head position; classes without
	// a goal representative get one shared fresh don't-care per class.
	head := f.view.head
	args := carve(&b.terms, len(head.args))
	for i, a := range head.args {
		t := f.resolve(a)
		if t.isVar() {
			r, ok := lookup(f.repr, t)
			if !ok {
				if r, ok = lookup(f.dc, t); !ok {
					r = b.fresh(dcStem)
					f.dc = append(f.dc, binding{t, r})
				}
			}
			t = r
		}
		args[i] = t
	}
	// Export: bindings this usage forces on covered-goal variables.
	if !f.eachBound(func(x, t term) bool {
		if t.isVar() {
			if t, _ = lookup(f.repr, t); t == x {
				return true
			}
		}
		if prev, ok := lookup(f.exp, x); ok {
			return prev == t
		}
		f.exp = append(f.exp, binding{x, t})
		return true
	}) {
		return
	}
	covered := carve(&b.ints, len(f.covered))[:0]
	for gi, cov := range f.covered {
		if cov {
			covered = append(covered, gi)
		}
	}
	for _, prev := range b.mcds[f.start:] {
		if sameMCD(prev, covered, args, f.exp) {
			return
		}
	}
	m := mcd{covered: covered, atom: atom{pred: head.pred, args: args}, export: carve(&b.binds, len(f.exp))}
	copy(m.export, f.exp)
	// Carry the view's comparisons, expressed over goal terms where
	// possible (comparisons over unexposed witnesses stay on view
	// variables; they hold for the stored extension by construction and
	// are used only for constraint-label pruning).
	if len(f.view.comps) > 0 {
		m.comps = make([]comparison, len(f.view.comps))
		for i, c := range f.view.comps {
			m.comps[i] = comparison{op: c.op, l: b.expose(c.l), r: b.expose(c.r)}
		}
	}
	b.mcds = append(b.mcds, m)
}

// eachBound calls visit, in order, with each distinct variable x of each
// covered goal that the mapping binds and the representative t of x's
// image, until visit returns false; it reports whether none did.
func (f *former) eachBound(visit func(x, t term) bool) bool {
	for gi, cov := range f.covered {
		if !cov {
			continue
		}
		goal := f.goals[gi].label
		for i, x := range goal.args {
			if t, ok := lookup(f.bind, x); ok && goal.firstVar(i) && !visit(x, f.resolve(t)) {
				return false
			}
		}
	}
	return true
}

// expose rewrites a view term through the mapping onto a goal term when one
// exists, else onto the view's variable renamed apart.
func (b *builder) expose(t term) term {
	f := &b.f
	if t = f.resolve(t); !t.isVar() {
		return t
	}
	if r, ok := lookup(f.repr, t); ok {
		return r
	}
	if f.base == noTerm {
		f.base = b.fresh(f.view.names)
	}
	return t + f.base
}

// sameMCD reports whether m covers the same goals with the same atom and
// the same export as the candidate. A fresh don't-care variable is never
// equal to another, so MCDs that need one are never duplicates.
func sameMCD(m mcd, covered []int, args []term, export []binding) bool {
	if !slices.Equal(m.covered, covered) || !slices.Equal(m.atom.args, args) || len(m.export) != len(export) {
		return false
	}
	for _, e := range export {
		if t, ok := lookup(m.export, e.v); !ok || t != e.t {
			return false
		}
	}
	return true
}
