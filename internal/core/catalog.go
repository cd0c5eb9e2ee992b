// Package core implements the paper's primary contribution: the rule-goal
// tree query reformulation algorithm for PPL (Section 4), which uniformly
// interleaves GAV-style (definitional) and LAV-style (inclusion, via MiniCon
// descriptions) expansions, chains through arbitrarily long paths of peer
// mappings, and extracts reformulations as a union of conjunctive queries
// over stored relations.
package core

import (
	"fmt"

	"repro/internal/lang"
	"repro/internal/minicon"
	"repro/internal/ppl"
)

// rule is a datalog rule available for definitional expansion: an original
// definitional peer mapping, or the "V :- Q1" half of a normalized inclusion.
type rule struct {
	// id is the originating description's ID and desc its dense index in the
	// catalog (for the once-per-path rule).
	id   string
	desc int
	// cq is the rule itself.
	cq lang.CQ
	// fromInclusion marks V-rules: they complete an inclusion expansion
	// that already consumed the description's path budget, so they are
	// exempt from the once-per-path check (their head predicate is a fresh
	// V that occurs nowhere else, so they cannot recurse).
	fromInclusion bool
}

// view is the "V ⊆ Q2" half of a normalized inclusion, with the originating
// description's dense index.
type view struct {
	*minicon.View
	desc int
}

// catalog is the step-1 normalized form of a PDMS (Section 4.2): every
// equality split into two inclusions, every inclusion Q1 ⊆ Q2 split into a
// view V ⊆ Q2 plus a rule V :- Q1, definitional mappings kept as rules.
// Indexed for expansion.
//
// newCatalog computes everything below; nothing is written afterwards, so
// any number of builders may read one catalog concurrently. Description IDs
// are interned to dense indexes (descs), which is what lets the ban sets and
// reach cones be bitsets.
type catalog struct {
	pdms *ppl.PDMS
	// rulesByHead indexes rules by head predicate (definitional expansion).
	rulesByHead map[string][]*rule
	// viewsByBodyPred indexes views by body predicate (inclusion expansion).
	viewsByBodyPred map[string][]view
	// descs lists the description IDs; a description's position is its
	// dense index.
	descs []string
	// reach holds, per predicate, the descriptions reachable from it in the
	// dependency graph: only these can occur anywhere in a rule-goal subtree
	// rooted at a goal over the predicate, so ban sets restricted to this
	// cone fully determine the subtree.
	reach map[string]bitset
	// groundable holds the non-stored predicates a goal over which can
	// bottom out in stored relations (see prune.go).
	groundable map[string]bool
	// descContent holds each description's canonical content string, used by
	// duplicate-description pruning (see prune.go).
	descContent []string
	// vpredContent maps each minted V-predicate name to its normalized
	// inclusion's canonical content, so replicated mappings' distinct
	// V-predicates canonicalize identically in childSig (see prune.go).
	vpredContent map[string]string
	// class is the query-independent half of the Theorem 3.1–3.3
	// classification.
	class ppl.SpecClass
}

// newCatalog normalizes the PDMS descriptions.
func newCatalog(n *ppl.PDMS) *catalog {
	c := &catalog{
		pdms:            n,
		rulesByHead:     map[string][]*rule{},
		viewsByBodyPred: map[string][]view{},
		vpredContent:    map[string]string{},
		class:           n.ClassifySpec(),
	}
	// next[d] lists the predicates description d's use introduces: a
	// definitional rule's body, an inclusion's LHS body (via the V-rule).
	var next [][]string
	addDesc := func(id, kind string, cqs ...lang.CQ) int {
		c.descs = append(c.descs, id)
		c.descContent = append(c.descContent, canonContent(kind, cqs...))
		next = append(next, nil)
		return len(c.descs) - 1
	}
	addNext := func(d int, body []lang.Atom) {
		for _, a := range body {
			next[d] = append(next[d], a.Pred)
		}
	}
	vnum := 0
	// addInclusion normalizes one inclusion Q1 ⊆ Q2 originating from
	// description d: fresh V; view V ⊆ Q2; rule V :- Q1.
	addInclusion := func(d int, lhs, rhs lang.CQ) {
		vnum++
		id := c.descs[d]
		vpred := fmt.Sprintf("_V%d[%s]", vnum, id)
		c.addView(view{desc: d, View: &minicon.View{
			ID:    id,
			Head:  lang.Atom{Pred: vpred, Args: rhs.Head.Args},
			Body:  rhs.Body,
			Comps: rhs.Comps,
		}})
		c.addRule(&rule{
			id:            id,
			desc:          d,
			fromInclusion: true,
			cq: lang.CQ{
				Head:  lang.Atom{Pred: vpred, Args: lhs.Head.Args},
				Body:  lhs.Body,
				Comps: lhs.Comps,
			},
		})
		addNext(d, lhs.Body)
		// V-predicate names embed the description ID and a global counter,
		// so two content-identical replicated mappings mint different
		// V-predicates; childSig canonicalizes V-atoms through this table so
		// the copies still sign identically. Keyed per normalized inclusion
		// (not per description) so the two directions of an equality stay
		// distinct.
		c.vpredContent[vpred] = canonContent("ninc", lhs, rhs)
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
			c.addRule(&rule{id: m.ID, desc: d, cq: m.Rule})
			addNext(d, m.Rule.Body)
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
	c.groundable = c.groundSet()
	c.reach = c.reachCones(next)
	return c
}

func (c *catalog) addRule(r *rule) {
	if !r.cq.IsSafe() {
		// Mappings are validated at AddMapping time; this is a defensive
		// invariant for rules synthesized here.
		panic(fmt.Sprintf("core: unsafe normalized rule %s", r.cq))
	}
	c.rulesByHead[r.cq.Head.Pred] = append(c.rulesByHead[r.cq.Head.Pred], r)
}

func (c *catalog) addView(v view) {
	seen := map[string]bool{}
	for _, a := range v.Body {
		if !seen[a.Pred] {
			seen[a.Pred] = true
			c.viewsByBodyPred[a.Pred] = append(c.viewsByBodyPred[a.Pred], v)
		}
	}
}

// isStored reports whether pred names a stored relation (leaf predicate).
func (c *catalog) isStored(pred string) bool { return c.pdms.IsStored(pred) }

// reachCones computes reach: for every predicate with an expansion, the
// least set holding each description applicable at it (its rules' and its
// views') and the cones of the predicates those descriptions introduce
// (next). Predicates are visited callees first, so one sweep settles an
// acyclic dependency graph and a second confirms it; cycles (equalities,
// replication loops) take a sweep per nesting level.
func (c *catalog) reachCones(next [][]string) map[string]bitset {
	words := (len(c.descs) + 63) / 64
	reach := map[string]bitset{}
	applicable := func(p string, visit func(d int)) {
		for _, ru := range c.rulesByHead[p] {
			visit(ru.desc)
		}
		for _, v := range c.viewsByBodyPred[p] {
			visit(v.desc)
		}
	}
	var order []string
	var walk func(p string)
	walk = func(p string) {
		if _, seen := reach[p]; seen {
			return
		}
		reach[p] = make(bitset, words)
		applicable(p, func(d int) {
			for _, np := range next[d] {
				walk(np)
			}
		})
		order = append(order, p)
	}
	for p := range c.rulesByHead {
		walk(p)
	}
	for p := range c.viewsByBodyPred {
		walk(p)
	}
	for changed := true; changed; {
		changed = false
		for _, p := range order {
			cone := reach[p]
			applicable(p, func(d int) {
				if !cone.has(d) {
					cone.set(d)
					changed = true
				}
				for _, np := range next[d] {
					if cone.union(reach[np]) {
						changed = true
					}
				}
			})
		}
	}
	return reach
}
