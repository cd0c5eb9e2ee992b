package ppl

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/lang"
)

// AcyclicInclusions implements Definition 3.1: the inclusion dependency
// graph has a node per peer relation mentioned in the inclusion mappings and
// storage containment descriptions, and an arc R -> S for every description
// Q1 ⊆ Q2 with R in Q1 and S in Q2. It returns true when that graph is
// acyclic, plus one witness cycle (as a list of relation names) when not.
//
// Storage containment descriptions A:R ⊆ Q contribute arcs from the stored
// relation to the peer relations of Q; equality descriptions and equality
// peer mappings contribute arcs in both directions (an equality is the two
// opposite inclusions, which the paper notes "automatically create cycles" —
// callers interested in Theorem 3.2 should use Classify instead).
func (n *PDMS) AcyclicInclusions() (bool, []string) {
	adj := map[string]map[string]bool{}
	addArc := func(from, to string) {
		if adj[from] == nil {
			adj[from] = map[string]bool{}
		}
		adj[from][to] = true
	}
	addSide := func(lhs, rhs []lang.Atom) {
		for _, a := range lhs {
			for _, b := range rhs {
				addArc(a.Pred, b.Pred)
			}
		}
	}
	for _, m := range n.mappings {
		switch m.Kind {
		case Inclusion:
			addSide(m.LHS.Body, m.RHS.Body)
		case Equality:
			addSide(m.LHS.Body, m.RHS.Body)
			addSide(m.RHS.Body, m.LHS.Body)
		}
	}
	for _, s := range n.storage {
		addSide([]lang.Atom{s.Stored}, s.Query.Body)
		if s.Kind == StorageEquality {
			addSide(s.Query.Body, []lang.Atom{s.Stored})
		}
	}
	return findCycle(adj)
}

// AcyclicInclusionsOnly is AcyclicInclusions restricted to pure inclusion
// descriptions (equalities excluded), which is the graph Theorem 3.2
// requires to be acyclic.
func (n *PDMS) AcyclicInclusionsOnly() (bool, []string) {
	adj := map[string]map[string]bool{}
	addArc := func(from, to string) {
		if adj[from] == nil {
			adj[from] = map[string]bool{}
		}
		adj[from][to] = true
	}
	addSide := func(lhs, rhs []lang.Atom) {
		for _, a := range lhs {
			for _, b := range rhs {
				addArc(a.Pred, b.Pred)
			}
		}
	}
	for _, m := range n.mappings {
		if m.Kind == Inclusion {
			addSide(m.LHS.Body, m.RHS.Body)
		}
	}
	for _, s := range n.storage {
		if s.Kind == StorageContainment {
			addSide([]lang.Atom{s.Stored}, s.Query.Body)
		}
	}
	return findCycle(adj)
}

// findCycle returns (true, nil) when adj is acyclic, else (false, cycle).
func findCycle(adj map[string]map[string]bool) (bool, []string) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var stack []string
	var cycle []string
	var dfs func(u string) bool
	dfs = func(u string) bool {
		color[u] = grey
		stack = append(stack, u)
		// Deterministic order for reproducible witnesses.
		nbrs := make([]string, 0, len(adj[u]))
		for v := range adj[u] {
			nbrs = append(nbrs, v)
		}
		sort.Strings(nbrs)
		for _, v := range nbrs {
			switch color[v] {
			case grey:
				// Found a cycle: slice the stack from v.
				for i, w := range stack {
					if w == v {
						cycle = append([]string{}, stack[i:]...)
						cycle = append(cycle, v)
						break
					}
				}
				return true
			case white:
				if dfs(v) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[u] = black
		return false
	}
	nodes := make([]string, 0, len(adj))
	for u := range adj {
		nodes = append(nodes, u)
	}
	sort.Strings(nodes)
	for _, u := range nodes {
		if color[u] == white && dfs(u) {
			return false, cycle
		}
	}
	return true, nil
}

// Complexity is the data complexity class of certain-answer computation for
// a PDMS, per Theorems 3.1–3.3.
type Complexity uint8

const (
	// PTime: all certain answers computable in polynomial time.
	// Reformulation is sound; a recursive definitional mapping needs
	// unfoldings of any depth, so a finite union can miss some answers.
	PTime Complexity = iota
	// CoNP: finding all certain answers is co-NP-complete; reformulation
	// remains sound but may be incomplete.
	CoNP
	// Undecidable: certain-answer computation is undecidable in general
	// for this specification shape (cyclic inclusions with projections).
	Undecidable
)

// String names the complexity class.
func (c Complexity) String() string {
	switch c {
	case PTime:
		return "PTIME"
	case CoNP:
		return "co-NP-complete"
	default:
		return "undecidable (in general)"
	}
}

// Classification reports the complexity classification and the syntactic
// findings it rests on.
type Classification struct {
	Class Complexity
	// Reasons lists the syntactic facts justifying the class, in the order
	// the theorems are checked.
	Reasons []string
}

// String renders the classification.
func (c Classification) String() string {
	return c.Class.String() + ": " + strings.Join(c.Reasons, "; ")
}

// Classify applies the syntactic conditions of Theorems 3.1–3.3 to a PDMS
// and an optional query (pass the zero CQ for query-independent analysis):
//
//   - Acyclic pure-inclusion graph + projection-free equalities + heads of
//     definitional mappings not used on the RHS of other descriptions +
//     comparisons only in storage descriptions / definitional bodies and not
//     in the query → PTIME (Thm 3.2(1), Thm 3.3(1)).
//   - Same but some equality *storage* description has projections → co-NP
//     (Thm 3.2(2)).
//   - Same but query or non-definitional mappings contain comparisons →
//     co-NP (Thm 3.3(2)).
//   - Cyclic inclusion graph (beyond what projection-free equalities
//     induce) → undecidable in general (Thm 3.1(1)).
func (n *PDMS) Classify(query lang.CQ) Classification {
	return n.ClassifySpec().Classify(query)
}

// SpecClass is the query-independent half of Classify: the class the
// specification alone forces and the reasons for it. It is a snapshot — a
// later AddMapping or AddStorage does not show in it — and is safe for
// concurrent use.
type SpecClass struct {
	class   Complexity
	reasons []string
}

// Classify completes the classification for one query (the zero CQ leaves
// the specification's own class).
func (s SpecClass) Classify(query lang.CQ) Classification {
	out := Classification{Class: s.class, Reasons: append([]string(nil), s.reasons...)}
	if out.Class == Undecidable {
		return out
	}
	if len(query.Comps) > 0 {
		out.Class = maxComplexity(out.Class, CoNP)
		out.Reasons = append(out.Reasons, "query uses comparison predicates (Thm 3.3(2))")
	}
	if out.Class == PTime {
		out.Reasons = append(out.Reasons,
			"equalities projection-free, definitional heads isolated, comparisons confined (Thms 3.2(1), 3.3(1))")
	}
	return out
}

// ClassifySpec runs the specification scans of Classify once, for callers
// that classify many queries against one specification.
func (n *PDMS) ClassifySpec() SpecClass {
	var out SpecClass

	acyclic, cycle := n.AcyclicInclusionsOnly()
	if !acyclic {
		out.class = Undecidable
		out.reasons = append(out.reasons,
			fmt.Sprintf("inclusion peer mappings are cyclic (witness: %s)", strings.Join(cycle, " -> ")))
		return out
	}
	out.reasons = append(out.reasons, "inclusion peer mappings are acyclic (Definition 3.1)")

	class := PTime

	// Theorem 3.2 condition (1): equality descriptions projection-free.
	for _, m := range n.mappings {
		if m.Kind == Equality && (m.LHS.HasProjection() || m.RHS.HasProjection()) {
			class = maxComplexity(class, CoNP)
			out.reasons = append(out.reasons,
				fmt.Sprintf("equality peer mapping %s contains projections (Thm 3.2)", m.ID))
		}
	}
	for _, s := range n.storage {
		if s.Kind == StorageEquality && s.Query.HasProjection() {
			class = maxComplexity(class, CoNP)
			out.reasons = append(out.reasons,
				fmt.Sprintf("equality storage description %s contains projections (Thm 3.2(2))", s.ID))
		}
	}

	// Theorem 3.2 condition (2): a relation defined by a definitional
	// mapping must not appear on the right-hand side of any other
	// description.
	defHeads := map[string]string{}
	for _, m := range n.mappings {
		if m.Kind == Definitional {
			defHeads[m.Rule.Head.Pred] = m.ID
		}
	}
	for _, m := range n.mappings {
		var rhs []lang.Atom
		switch m.Kind {
		case Inclusion, Equality:
			rhs = m.RHS.Body
		case Definitional:
			continue
		}
		for _, a := range rhs {
			if defID, ok := defHeads[a.Pred]; ok {
				class = maxComplexity(class, CoNP)
				out.reasons = append(out.reasons,
					fmt.Sprintf("definitional head %s (from %s) appears on RHS of %s (Thm 3.2)", a.Pred, defID, m.ID))
			}
		}
	}
	for _, s := range n.storage {
		for _, a := range s.Query.Body {
			if defID, ok := defHeads[a.Pred]; ok {
				class = maxComplexity(class, CoNP)
				out.reasons = append(out.reasons,
					fmt.Sprintf("definitional head %s (from %s) appears in storage description %s (Thm 3.2)", a.Pred, defID, s.ID))
			}
		}
	}

	// Theorem 3.3: comparison predicate placement.
	for _, m := range n.mappings {
		switch m.Kind {
		case Definitional:
			// Comparisons in definitional bodies are fine (Thm 3.3(1)).
		default:
			if len(m.LHS.Comps) > 0 || len(m.RHS.Comps) > 0 {
				class = maxComplexity(class, CoNP)
				out.reasons = append(out.reasons,
					fmt.Sprintf("non-definitional peer mapping %s uses comparison predicates (Thm 3.3(2))", m.ID))
			}
		}
	}
	out.class = class
	return out
}

func maxComplexity(a, b Complexity) Complexity {
	if b > a {
		return b
	}
	return a
}
