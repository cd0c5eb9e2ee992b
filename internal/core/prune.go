package core

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/lang"
)

// This file implements the deep-topology subtree pruning behind
// Options.NoPruneSubsumed: hopeless-predicate pruning (a goal whose
// predicate can never bottom out in stored relations is dead no matter how
// it is expanded, so its subtree is never built) and duplicate-description
// pruning (an expansion whose originating description is content-identical
// to an already-built sibling expansion with the same instantiation is
// skipped — replicated mappings make these common on large topologies).
//
// Both prunes are sound for the extracted rewriting set:
//
//   - Hopeless predicates: groundability below is a NECESSARY condition for
//     a goal to be productive — every rewriting through the goal bottoms out
//     in stored relations along rules and views, and the fixpoint
//     over-approximates exactly that reachability. It also bounds sibling
//     coverage: an MCD covering a goal atom comes from a view whose body
//     mentions the goal's predicate, and productive coverage needs that
//     view's V-predicate groundable — the same condition groundableGoal
//     tests. A non-groundable goal can therefore be neither productive nor
//     covered, and skipping it changes no rewriting.
//   - Duplicate descriptions: if two descriptions have identical canonical
//     content and an expansion of the same goal instantiates them
//     identically (same subgoal atoms, comparisons, exports, coverage),
//     swapping one description ID for the other is a bijection on
//     derivations (the once-per-path ban sets map across the swap), and
//     extracted rewritings carry no description IDs — the rewriting sets
//     are equal, so only the first copy needs a subtree.

// groundSet computes the predicates a goal over which can possibly bottom
// out in stored relations, stored relations themselves aside. First the
// rule-head predicates derivable from stored relations: a head joins when
// some rule for it has every body predicate groundable as a goal (stored,
// derivable, or coverable through a view whose V-predicate is derivable).
// The fixpoint is over the normalized catalog, so V-predicates participate
// through their V-rules. Then every predicate with a view whose V-predicate
// is derivable.
func (c *catalog) groundSet() map[string]bool {
	g := map[string]bool{}
	goalOK := func(p string) bool {
		if g[p] || c.isStored(p) {
			return true
		}
		for _, v := range c.viewsByBodyPred[p] {
			if g[v.Head.Pred] {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for head, rules := range c.rulesByHead {
			if g[head] {
				continue
			}
			for _, ru := range rules {
				ok := true
				for _, a := range ru.cq.Body {
					if !goalOK(a.Pred) {
						ok = false
						break
					}
				}
				if ok {
					g[head] = true
					changed = true
					break
				}
			}
		}
	}
	for p := range c.viewsByBodyPred {
		if goalOK(p) {
			g[p] = true
		}
	}
	return g
}

// groundableGoal reports whether a goal over pred can possibly bottom out in
// stored relations: pred is stored, some rule chain derives it, or some view
// over it has a derivable V-predicate. False means the goal is a dead end
// before any expansion is tried.
func (c *catalog) groundableGoal(pred string) bool {
	return c.groundable[pred] || c.isStored(pred)
}

// canonContent renders a kind tag plus a CQ sequence with variables
// numbered by first occurrence across the whole sequence. Two descriptions
// with equal content strings are interchangeable in any derivation.
func canonContent(kind string, cqs ...lang.CQ) string {
	var sb strings.Builder
	sb.WriteString(kind)
	num := map[string]int{}
	for _, cq := range cqs {
		sb.WriteByte('|')
		canonAtom(&sb, num, cq.Head, nil)
		for _, a := range cq.Body {
			canonAtom(&sb, num, a, nil)
		}
		sb.WriteByte('|')
		for _, cmp := range cq.Comps {
			canonComp(&sb, num, cmp)
		}
	}
	return sb.String()
}

func canonTerm(sb *strings.Builder, num map[string]int, t lang.Term) {
	if t.IsConst() {
		sb.WriteString("=" + t.Name)
		return
	}
	i, ok := num[t.Name]
	if !ok {
		i = len(num)
		num[t.Name] = i
	}
	sb.WriteByte('?')
	sb.WriteString(strconv.Itoa(i))
}

// canonAtom canonicalizes one atom; vpreds, when non-nil, maps V-predicate
// names to their normalized-inclusion content so content-identical
// replicated mappings (whose minted V-predicate names differ) render
// identically.
func canonAtom(sb *strings.Builder, num map[string]int, a lang.Atom, vpreds map[string]string) {
	if content, ok := vpreds[a.Pred]; ok {
		sb.WriteString("V{" + content + "}")
	} else {
		sb.WriteString(a.Pred)
	}
	for _, t := range a.Args {
		sb.WriteByte('~')
		canonTerm(sb, num, t)
	}
	sb.WriteByte(';')
}

func canonComp(sb *strings.Builder, num map[string]int, c lang.Comparison) {
	canonTerm(sb, num, c.L)
	sb.WriteString(c.Op.String())
	canonTerm(sb, num, c.R)
	sb.WriteByte(';')
}

// childSig canonicalizes a candidate expansion of goal n for duplicate-
// description pruning: the parent rule node's goal labels (pinning the
// variables shared with the context), the originating description's
// canonical content, and the instantiated expansion (subgoal atoms,
// comparisons, exports, covered sibling indexes). Equal signatures under the
// same goal node mean interchangeable expansions.
func (b *builder) childSig(n *node, desc int, atoms []lang.Atom, comps []lang.Comparison, export lang.Subst, covered []int) string {
	var sb strings.Builder
	num := map[string]int{}
	for _, sib := range n.parent.children {
		canonAtom(&sb, num, sib.label, b.cat.vpredContent)
	}
	sb.WriteByte('#')
	sb.WriteString(b.cat.descContent[desc])
	sb.WriteByte('#')
	for _, a := range atoms {
		canonAtom(&sb, num, a, b.cat.vpredContent)
	}
	sb.WriteByte('#')
	for _, cmp := range comps {
		canonComp(&sb, num, cmp)
	}
	sb.WriteByte('#')
	keys := make([]string, 0, len(export))
	for k := range export {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		canonTerm(&sb, num, export[k])
		sb.WriteByte(';')
	}
	sb.WriteByte('#')
	for _, ci := range covered {
		sb.WriteString(strconv.Itoa(ci))
		sb.WriteByte(',')
	}
	return sb.String()
}
