// Package core implements the paper's primary contribution: the rule-goal
// tree query reformulation algorithm for PPL (Section 4), which uniformly
// interleaves GAV-style (definitional) and LAV-style (inclusion, via MiniCon
// descriptions) expansions, chains through arbitrarily long paths of peer
// mappings, and extracts reformulations as a union of conjunctive queries
// over stored relations.
//
// The tree is built on integers: New interns the specification's predicates
// and constants into a table frozen from then on, each reformulation numbers
// its own variables, and names come back only where terms leave the
// package — in the rewritings, ExplainTree and trace attributes.
package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/lang"
	"repro/internal/ppl"
)

// term is an interned term: a variable id (≥ 0) or a constant, whose id c
// is stored as ^c (< 0).
type term int32

// noTerm marks an unbound slot in a substitution.
const noTerm term = math.MinInt32

func constTerm(id int) term { return ^term(id) }

func (t term) isVar() bool { return t >= 0 }

// atom is an interned atom. pred indexes catalog.preds; the rule-goal
// tree's root, labelled by the query head, uses -1.
type atom struct {
	pred int32
	args []term
}

// has reports whether t is an argument of a.
func (a atom) has(t term) bool {
	for _, x := range a.args {
		if x == t {
			return true
		}
	}
	return false
}

// firstVar reports whether a.args[i] is a variable not already seen earlier
// in a, so that ranging over a's arguments with it visits each distinct
// variable once, in order of first occurrence.
func (a atom) firstVar(i int) bool {
	t := a.args[i]
	if !t.isVar() {
		return false
	}
	for _, x := range a.args[:i] {
		if x == t {
			return false
		}
	}
	return true
}

// comparison is an interned comparison predicate.
type comparison struct {
	op   lang.CompOp
	l, r term
}

// binding maps variable v to term t.
type binding struct{ v, t term }

// compiled is a rule or view over its own variables 0..len(names)-1; names
// holds their source names, the stems of the fresh names a reformulation
// prints for them.
type compiled struct {
	names []string
	head  atom
	body  []atom
	comps []comparison
}

// rule is a datalog rule available for definitional expansion: an original
// definitional peer mapping, or the "V :- Q1" half of a normalized inclusion.
type rule struct {
	compiled
	// id is the originating description's ID and desc its dense index in the
	// catalog (for the once-per-path rule).
	id   string
	desc int
	// fromInclusion marks V-rules: they complete an inclusion expansion
	// that already consumed the description's path budget, so they are
	// exempt from the once-per-path check (their head predicate is a fresh
	// V that occurs nowhere else, so they cannot recurse).
	fromInclusion bool
}

// view is the "V ⊆ Q2" half of a normalized inclusion: head V(Ā), body Q2.
type view struct {
	compiled
	id   string
	desc int
	// headVar marks the variables that occur in the head.
	headVar []bool
}

// predInfo is what the catalog knows about one predicate.
type predInfo struct {
	name   string
	stored bool
	// rules and views index the expansions of a goal over the predicate:
	// the rules with it as head, the views with it in their body.
	rules []*rule
	views []*view
	// ground reports whether a goal over the predicate can possibly bottom
	// out in stored relations (see prune.go).
	ground bool
	// reach holds the descriptions reachable from the predicate in the
	// dependency graph: only these can occur anywhere in a rule-goal subtree
	// rooted at a goal over it, so ban sets restricted to this cone fully
	// determine the subtree.
	reach bitset
	// plain reports that no description in reach mentions a constant or a
	// comparison: a subtree under a goal over the predicate only carries the
	// goal's constants along (see Reformulator.Parameterizable).
	plain bool
	// vclass is, for a minted V-predicate, the content class of its
	// normalized inclusion, so replicated mappings' distinct V-predicates
	// sign identically in childSig (see prune.go); -1 otherwise.
	vclass int32
}

// catalog is the step-1 normalized form of a PDMS (Section 4.2): every
// equality split into two inclusions, every inclusion Q1 ⊆ Q2 split into a
// view V ⊆ Q2 plus a rule V :- Q1, definitional mappings kept as rules.
// Indexed for expansion, over interned symbols.
//
// newCatalog computes everything below; nothing is written afterwards, so
// any number of builders may read one catalog concurrently. Description IDs
// are interned to dense indexes (descs), which is what lets the ban sets and
// reach cones be bitsets.
type catalog struct {
	pdms *ppl.PDMS
	// preds and consts are the frozen symbol tables; predID and constID
	// invert them.
	preds   []predInfo
	predID  map[string]int32
	consts  []string
	constID map[string]int
	// descs lists the description IDs; a description's position is its
	// dense index.
	descs []string
	// descClass holds each description's content class: descriptions with
	// equal canonical content share one (see prune.go).
	descClass []int32
	// class is the query-independent half of the Theorem 3.1–3.3
	// classification.
	class ppl.SpecClass
}

// newCatalog normalizes the PDMS descriptions.
func newCatalog(n *ppl.PDMS) *catalog {
	c := &catalog{
		pdms:    n,
		predID:  map[string]int32{},
		constID: map[string]int{},
		class:   n.ClassifySpec(),
	}
	for _, name := range n.RelationNames() {
		c.pred(name)
	}
	classes := map[string]int32{}
	classOf := func(content string) int32 {
		k, ok := classes[content]
		if !ok {
			k = int32(len(classes))
			classes[content] = k
		}
		return k
	}
	// next[d] lists the predicates description d's use introduces: a
	// definitional rule's body, an inclusion's LHS body (via the V-rule).
	var next [][]int32
	// valued lists the descriptions that mention a constant or a
	// comparison.
	var valued []int
	addDesc := func(id, kind string, cqs ...lang.CQ) int {
		d := len(c.descs)
		c.descs = append(c.descs, id)
		c.descClass = append(c.descClass, classOf(canonContent(kind, cqs...)))
		next = append(next, nil)
		if slices.ContainsFunc(cqs, mentionsValue) {
			valued = append(valued, d)
		}
		return d
	}
	addNext := func(d int, body []atom) {
		for _, a := range body {
			next[d] = append(next[d], a.pred)
		}
	}
	vnum := 0
	// addInclusion normalizes one inclusion Q1 ⊆ Q2 originating from
	// description d: fresh V; view V ⊆ Q2; rule V :- Q1.
	addInclusion := func(d int, lhs, rhs lang.CQ) {
		vnum++
		id := c.descs[d]
		vpred := fmt.Sprintf("_V%d[%s]", vnum, id)
		v := c.newView(id, d, lang.CQ{Head: lang.Atom{Pred: vpred, Args: rhs.Head.Args}, Body: rhs.Body, Comps: rhs.Comps})
		seen := map[int32]bool{}
		for _, a := range v.body {
			if !seen[a.pred] {
				seen[a.pred] = true
				c.preds[a.pred].views = append(c.preds[a.pred].views, v)
			}
		}
		ru := c.addRule(id, d, lang.CQ{Head: lang.Atom{Pred: vpred, Args: lhs.Head.Args}, Body: lhs.Body, Comps: lhs.Comps})
		ru.fromInclusion = true
		addNext(d, ru.body)
		// V-predicate names embed the description ID and a global counter,
		// so two content-identical replicated mappings mint different
		// V-predicates; their content class lets childSig sign the copies
		// identically. Keyed per normalized inclusion (not per description)
		// so the two directions of an equality stay distinct.
		c.preds[v.head.pred].vclass = classOf(canonContent("ninc", lhs, rhs))
	}
	for _, m := range n.Mappings() {
		switch m.Kind {
		case ppl.Inclusion:
			addInclusion(addDesc(m.ID, "inc", m.LHS, m.RHS), m.LHS, m.RHS)
		case ppl.Equality:
			// Step 1: an equality is the two opposite inclusions.
			d := addDesc(m.ID, "eq", m.LHS, m.RHS)
			addInclusion(d, m.LHS, m.RHS)
			addInclusion(d, m.RHS, m.LHS)
		case ppl.Definitional:
			d := addDesc(m.ID, "def", m.Rule)
			addNext(d, c.addRule(m.ID, d, m.Rule).body)
		}
	}
	for _, s := range n.Storages() {
		// A storage description A.R ⊆ Q is the inclusion
		// {A.R(x̄)} ⊆ Q, whose normalized rule grounds out in the stored
		// relation. Equality storage descriptions add no reformulation
		// power in the other direction (goal nodes over stored relations
		// are leaves), so both kinds normalize identically; the
		// distinction matters to ppl.Classify, not to reformulation.
		lhs := lang.CQ{
			Head: lang.Atom{Pred: "_store", Args: s.Stored.Args},
			Body: []lang.Atom{s.Stored},
		}
		rhs := s.Query
		rhs.Head = lang.Atom{Pred: "_store", Args: s.Query.Head.Args}
		addInclusion(addDesc(s.ID, "store", lhs, rhs), lhs, rhs)
	}
	c.groundSet()
	c.reachCones(next)
	valuedSet := make(bitset, (len(c.descs)+63)/64)
	for _, d := range valued {
		valuedSet.set(d)
	}
	for p := range c.preds {
		c.preds[p].plain = !c.preds[p].reach.meets(valuedSet)
	}
	return c
}

// mentionsValue reports whether q mentions a constant or a comparison.
func mentionsValue(q lang.CQ) bool {
	hasConst := func(a lang.Atom) bool { return slices.ContainsFunc(a.Args, lang.Term.IsConst) }
	return len(q.Comps) > 0 || hasConst(q.Head) || slices.ContainsFunc(q.Body, hasConst)
}

// pred interns a predicate name.
func (c *catalog) pred(name string) int32 {
	p, ok := c.predID[name]
	if !ok {
		p = int32(len(c.preds))
		c.predID[name] = p
		c.preds = append(c.preds, predInfo{name: name, stored: c.pdms.IsStored(name), vclass: -1})
	}
	return p
}

// constant interns a constant.
func (c *catalog) constant(name string) term {
	id, ok := c.constID[name]
	if !ok {
		id = len(c.consts)
		c.constID[name] = id
		c.consts = append(c.consts, name)
	}
	return constTerm(id)
}

// compile interns q's symbols through pred and constant and numbers its
// variables by first occurrence (head, body, comparisons).
func compile(q lang.CQ, pred func(string) int32, constant func(string) term) compiled {
	var out compiled
	local := map[string]term{}
	tm := func(t lang.Term) term {
		if t.IsConst() {
			return constant(t.Name)
		}
		v, ok := local[t.Name]
		if !ok {
			v = term(len(out.names))
			local[t.Name] = v
			out.names = append(out.names, t.Name)
		}
		return v
	}
	at := func(a lang.Atom) atom {
		args := make([]term, len(a.Args))
		for i, t := range a.Args {
			args[i] = tm(t)
		}
		return atom{pred: pred(a.Pred), args: args}
	}
	out.head = at(q.Head)
	for _, a := range q.Body {
		out.body = append(out.body, at(a))
	}
	for _, cmp := range q.Comps {
		out.comps = append(out.comps, comparison{op: cmp.Op, l: tm(cmp.L), r: tm(cmp.R)})
	}
	return out
}

func (c *catalog) newView(id string, d int, q lang.CQ) *view {
	v := &view{id: id, desc: d, compiled: compile(q, c.pred, c.constant)}
	v.headVar = make([]bool, len(v.names))
	for _, t := range v.head.args {
		if t.isVar() {
			v.headVar[t] = true
		}
	}
	return v
}

func (c *catalog) addRule(id string, d int, q lang.CQ) *rule {
	if !q.IsSafe() {
		// Mappings are validated at AddMapping time; this is a defensive
		// invariant for rules synthesized here.
		panic(fmt.Sprintf("core: unsafe normalized rule %s", q))
	}
	ru := &rule{id: id, desc: d, compiled: compile(q, c.pred, c.constant)}
	h := &c.preds[ru.head.pred]
	h.rules = append(h.rules, ru)
	return ru
}

// reachCones computes each predicate's reach: the least set holding each
// description applicable at it (its rules' and its views') and the cones of
// the predicates those descriptions introduce (next). Predicates are visited
// callees first, so one sweep settles an acyclic dependency graph and a
// second confirms it; cycles (equalities, replication loops) take a sweep
// per nesting level.
func (c *catalog) reachCones(next [][]int32) {
	words := (len(c.descs) + 63) / 64
	applicable := func(p int32, visit func(d int)) {
		for _, ru := range c.preds[p].rules {
			visit(ru.desc)
		}
		for _, v := range c.preds[p].views {
			visit(v.desc)
		}
	}
	var order []int32
	var walk func(p int32)
	walk = func(p int32) {
		if c.preds[p].reach != nil {
			return
		}
		c.preds[p].reach = make(bitset, words)
		applicable(p, func(d int) {
			for _, np := range next[d] {
				walk(np)
			}
		})
		order = append(order, p)
	}
	for p := range c.preds {
		if len(c.preds[p].rules) > 0 || len(c.preds[p].views) > 0 {
			walk(int32(p))
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range order {
			cone := c.preds[p].reach
			applicable(p, func(d int) {
				if !cone.has(d) {
					cone.set(d)
					changed = true
				}
				for _, np := range next[d] {
					if cone.union(c.preds[np].reach) {
						changed = true
					}
				}
			})
		}
	}
}
