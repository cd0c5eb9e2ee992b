package core

import (
	"slices"

	"repro/internal/constraints"
	"repro/internal/lang"
)

// mark records the extent of extraction's accumulator — the atoms, comps
// and covers stacks and the trail of the export bindings — and undoTo
// returns to it.
type mark struct{ atoms, comps, trail, covers int }

func (b *builder) mark() mark {
	return mark{len(b.atoms), len(b.comps), len(b.trail), len(b.covers)}
}

func (b *builder) undoTo(m mark) {
	b.atoms, b.comps = b.atoms[:m.atoms], b.comps[:m.comps]
	b.undo(m.trail)
	for _, g := range b.covers[m.covers:] {
		g.covered = false
	}
	b.covers = b.covers[:m.covers]
}

// pushRule adds rule node rn's comparisons and export to the accumulator;
// false means the export conflicts with one already bound.
func (b *builder) pushRule(rn *node) bool {
	b.comps = append(b.comps, rn.comps...)
	for _, e := range rn.export {
		if cur := b.sub[e.v]; cur != noTerm {
			if cur != e.t {
				return false
			}
			continue
		}
		b.bind(e.v, e.t)
	}
	return true
}

// coverGoal marks goal g covered until the enclosing mark is undone.
func (b *builder) coverGoal(g *node) {
	g.covered = true
	b.covers = append(b.covers, g)
}

// extract enumerates the conjunctive rewritings of the tree rooted at root,
// invoking yield for each; yield returning false stops the enumeration.
// Each rewriting's body refers only to stored relations.
func (b *builder) extract(root *node, yield func(lang.CQ) bool) {
	b.yield = yield
	b.coverRule(root.children[0], emitCont)
}

// cont is a continuation of the solvers below: what to do with the
// accumulator once the current goal or rule node is solved. Continuations
// live on the builder's conts stack and are named by their index there;
// emitCont, the last, emits the complete cover.
type cont struct {
	// rn, when set, is an inclusion rule node whose comparisons and
	// export come next (solveRule); otherwise cover is a rule node whose
	// covering continues after resolver cr covered goal next (cover).
	rn, cover, cr, next *node
	k                   int
}

const emitCont = -1

// push puts c on the continuation stack and returns its index; the caller
// pops it when the call it was made for returns.
func (b *builder) push(c cont) int {
	b.conts = append(b.conts, c)
	return len(b.conts) - 1
}

func (b *builder) pop(k int) { b.conts = b.conts[:k] }

// resume runs continuation k.
func (b *builder) resume(k int) bool {
	if k == emitCont {
		return b.emit()
	}
	c := b.conts[k]
	m := b.mark()
	var ok bool
	if c.rn != nil {
		ok = !b.pushRule(c.rn) || b.resume(c.k) // conflicting exports: skip combination
	} else {
		if len(c.cr.unc) == 0 {
			b.coverGoal(c.next)
		}
		for _, u := range c.cr.unc {
			if !u.covered {
				b.coverGoal(u)
			}
		}
		ok = b.cover(c.cover, c.k)
	}
	b.undoTo(m)
	return ok
}

// emit finalizes the accumulator's full cover into a conjunctive rewriting,
// filtering unsatisfiable and unsafe combinations, and forwards it to
// yield. Returns false to stop enumeration.
func (b *builder) emit() bool {
	n := len(b.head.args)
	for _, a := range b.atoms {
		n += len(a.args)
	}
	args := make([]lang.Term, n)
	resolve := func(a atom) lang.Atom {
		out := args[:len(a.args):len(a.args)]
		args = args[len(a.args):]
		for i, t := range a.args {
			out[i] = b.langTerm(b.apply(t))
		}
		return lang.Atom{Pred: b.predName(a.pred), Args: out}
	}
	head := resolve(b.head)
	body := make([]lang.Atom, len(b.atoms))
	for i, a := range b.atoms {
		body[i] = resolve(a)
	}
	inBody := func(t lang.Term) bool {
		for _, a := range body {
			if a.HasVar(t) {
				return true
			}
		}
		return false
	}
	var kept []lang.Comparison
	if len(b.comps) > 0 {
		comps := make([]lang.Comparison, len(b.comps))
		for i, c := range b.comps {
			comps[i] = lang.Comparison{Op: c.op, L: b.langTerm(b.apply(c.l)), R: b.langTerm(b.apply(c.r))}
		}
		// All accumulated comparisons participate in the satisfiability
		// check …
		if !constraints.Satisfiable(comps) {
			b.stats.DiscardUnsat++
			return true
		}
		// … but only those over variables visible in the rewriting (or
		// ground) can be carried into the output; the rest constrain
		// view-internal values that the stored data satisfies by
		// construction.
		visible := func(t lang.Term) bool { return t.IsConst() || head.HasVar(t) || inBody(t) }
		for _, c := range comps {
			if visible(c.L) && visible(c.R) {
				kept = append(kept, c)
			}
		}
	}
	for _, t := range head.Args {
		if t.IsVar() && !inBody(t) {
			// Defensive: required-variable tracking should prevent this; an
			// unsafe rewriting cannot be evaluated, so drop it.
			b.stats.DiscardUnsat++
			return true
		}
	}
	b.stats.Rewritings++
	return b.yield(lang.CQ{Head: head, Body: body, Comps: kept})
}

// solveGoal enumerates the partial solutions of a single goal node standing
// alone (stored leaf or any of its expansions), calling k with each pushed
// onto the accumulator.
func (b *builder) solveGoal(n *node, k int) bool {
	if n.stored {
		b.atoms = append(b.atoms, n.label)
		ok := b.resume(k)
		b.atoms = b.atoms[:len(b.atoms)-1]
		return ok
	}
	if n.dead {
		return true
	}
	for _, rn := range n.children {
		if !b.solveRule(rn, k) {
			return false
		}
	}
	return true
}

// solveRule enumerates the partial solutions of one rule node.
//
// Inclusion-expansion rule nodes have a single V-goal child; their solutions
// are that child's solutions extended with the node's comparisons and MCD
// export. Definitional (and query) rule nodes require a full cover of their
// children (coverRule).
func (b *builder) solveRule(rn *node, k int) bool {
	if len(rn.unc) > 0 {
		if len(rn.comps) == 0 && len(rn.export) == 0 {
			return b.solveGoal(rn.children[0], k) // nothing to add
		}
		i := b.push(cont{rn: rn, k: k})
		ok := b.solveGoal(rn.children[0], i)
		b.pop(i)
		return ok
	}
	return b.coverRule(rn, k)
}

// coverRule enumerates the ways to cover ALL goal children of a definitional
// (or query) rule node, per step 3 of Section 4.2, after pushing the node's
// own comparisons and export.
func (b *builder) coverRule(rn *node, k int) bool {
	m := b.mark()
	ok := !b.pushRule(rn) || b.cover(rn, k)
	b.undoTo(m)
	return ok
}

// cover picks for rn's first uncovered child a resolver — the child's own
// stored leaf, one of its rule children, or a sibling's inclusion expansion
// whose unc label covers it — and recurses. Every resolver set is
// enumerated exactly once because each resolver is chosen at its
// first-in-order uncovered goal; goals already covered are not covered
// again (Remark 4.1 tolerates it, we avoid it).
func (b *builder) cover(rn *node, k int) bool {
	var next *node
	for _, c := range rn.children {
		if !c.covered {
			next = c
			break
		}
	}
	if next == nil {
		return b.resume(k)
	}
	if next.stored {
		m := b.mark()
		b.atoms = append(b.atoms, next.label)
		b.coverGoal(next)
		ok := b.cover(rn, k)
		b.undoTo(m)
		return ok
	}
	// Candidate resolvers: any rule child of any sibling (including next
	// itself) whose coverage — its unc label for an inclusion expansion,
	// its parent for a definitional one — includes next.
	for _, sib := range rn.children {
		for _, cr := range sib.children {
			if !coversGoal(cr, next) {
				continue
			}
			i := b.push(cont{cover: rn, cr: cr, next: next, k: k})
			ok := b.solveRule(cr, i)
			b.pop(i)
			if !ok {
				return false
			}
		}
	}
	return true
}

// coversGoal reports whether resolver cr covers goal g.
func coversGoal(cr, g *node) bool {
	if len(cr.unc) == 0 {
		return cr.parent == g
	}
	return slices.Contains(cr.unc, g)
}
