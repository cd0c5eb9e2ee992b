package core

import (
	"bytes"
	"encoding/binary"
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

// groundSet computes each predicate's ground flag. First the rule-head
// predicates derivable from stored relations: a head joins when some rule
// for it has every body predicate groundable as a goal (stored, derivable,
// or coverable through a view whose V-predicate is derivable). The fixpoint
// is over the normalized catalog, so V-predicates participate through their
// V-rules. Then every predicate with a view whose V-predicate is derivable.
func (c *catalog) groundSet() {
	derivable := make([]bool, len(c.preds))
	goalOK := func(p int32) bool {
		if derivable[p] || c.preds[p].stored {
			return true
		}
		for _, v := range c.preds[p].views {
			if derivable[v.head.pred] {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for head := range c.preds {
			if derivable[head] {
				continue
			}
			for _, ru := range c.preds[head].rules {
				ok := true
				for _, a := range ru.body {
					if !goalOK(a.pred) {
						ok = false
						break
					}
				}
				if ok {
					derivable[head] = true
					changed = true
					break
				}
			}
		}
	}
	for p := range c.preds {
		c.preds[p].ground = goalOK(int32(p))
	}
}

// canonContent renders a kind tag plus a CQ sequence with variables
// numbered by first occurrence across the whole sequence. Two descriptions
// with equal content strings are interchangeable in any derivation.
func canonContent(kind string, cqs ...lang.CQ) string {
	var sb strings.Builder
	sb.WriteString(kind)
	num := map[string]int{}
	term := func(t lang.Term) {
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
	atom := func(a lang.Atom) {
		sb.WriteString(a.Pred)
		for _, t := range a.Args {
			sb.WriteByte('~')
			term(t)
		}
		sb.WriteByte(';')
	}
	for _, cq := range cqs {
		sb.WriteByte('|')
		atom(cq.Head)
		for _, a := range cq.Body {
			atom(a)
		}
		sb.WriteByte('|')
		for _, cmp := range cq.Comps {
			term(cmp.L)
			sb.WriteString(cmp.Op.String())
			term(cmp.R)
			sb.WriteByte(';')
		}
	}
	return sb.String()
}

// The memo's contextKey and childSig are byte keys over integers, built in
// the builder's keybuf: every field a uvarint, every list preceded by its
// length, variables numbered by first occurrence within the key (canon),
// so equal keys mean isomorphic inputs.

func (b *builder) putInt(x uint64) { b.keybuf = binary.AppendUvarint(b.keybuf, x) }

func (b *builder) putTerm(t term) {
	if !t.isVar() {
		b.putInt(uint64(^t)<<1 | 1)
		return
	}
	if b.canon[t] < 0 {
		b.canon[t] = int32(len(b.numbered))
		b.numbered = append(b.numbered, t)
	}
	b.putInt(uint64(b.canon[t]) << 1)
}

// putAtom writes a; with content set, a V-predicate is written as its
// normalized inclusion's content class instead of its name.
func (b *builder) putAtom(a atom, content bool) {
	if content && a.pred >= 0 && b.cat.preds[a.pred].vclass >= 0 {
		b.putInt(uint64(b.cat.preds[a.pred].vclass)<<1 | 1)
	} else {
		b.putInt(uint64(a.pred+1) << 1)
	}
	b.putInt(uint64(len(a.args)))
	for _, t := range a.args {
		b.putTerm(t)
	}
}

// endKey forgets the key's variable numbering and returns the key.
func (b *builder) endKey() []byte {
	for _, v := range b.numbered {
		b.canon[v] = -1
	}
	b.numbered = b.numbered[:0]
	return b.keybuf
}

// childSig canonicalizes a candidate expansion of goal n for duplicate-
// description pruning: the parent rule node's goal labels (pinning the
// variables shared with the context), the originating description's content
// class, and the instantiated expansion (subgoal atoms, comparisons,
// exports, covered sibling indexes). Equal signatures under the same goal
// node mean interchangeable expansions. Exports are written as listed: a
// definitional export follows the goal label's variables, an MCD's those of
// its covered goals in order, so two expansions that cover the same goals
// list equal exports identically.
func (b *builder) childSig(n *node, desc int, atoms []atom, comps []comparison, export []binding, covered []int) []byte {
	b.keybuf = b.keybuf[:0]
	sibs := n.parent.children
	b.putInt(uint64(len(sibs)))
	for _, sib := range sibs {
		b.putAtom(sib.label, true)
	}
	b.putInt(uint64(b.cat.descClass[desc]))
	b.putInt(uint64(len(atoms)))
	for _, a := range atoms {
		b.putAtom(a, true)
	}
	b.putInt(uint64(len(comps)))
	for _, c := range comps {
		b.putInt(uint64(c.op))
		b.putTerm(c.l)
		b.putTerm(c.r)
	}
	b.putInt(uint64(len(export)))
	for _, e := range export {
		b.putTerm(e.v)
		b.putTerm(e.t)
	}
	b.putInt(uint64(len(covered)))
	for _, ci := range covered {
		b.putInt(uint64(ci))
	}
	return b.endKey()
}

// seenSig looks key up among the signatures of the expansions built so far
// under the current goal (sigs[from:]).
func (b *builder) seenSig(from int, key []byte) (prod, ok bool) {
	for _, s := range b.sigs[from:] {
		if bytes.Equal(b.sigBytes[s.off:s.end], key) {
			return s.prod, true
		}
	}
	return false, false
}

// addSig records key as the signature of an expansion about to be built
// and returns its slot, whose productivity the caller fills in.
func (b *builder) addSig(key []byte) int {
	off := len(b.sigBytes)
	b.sigBytes = append(b.sigBytes, key...)
	b.sigs = append(b.sigs, sigEntry{off: off, end: len(b.sigBytes)})
	return len(b.sigs) - 1
}
