package lang

import (
	"fmt"
	"sort"
	"strings"
)

// Subst is a substitution from variable names to terms. Applying a
// substitution replaces each variable with its image; unbound variables are
// left untouched. Substitutions are not required to be idempotent in general,
// but unification produces idempotent most-general unifiers.
type Subst map[string]Term

// NewSubst returns an empty substitution.
func NewSubst() Subst { return make(Subst) }

// Clone returns a copy of s.
func (s Subst) Clone() Subst {
	c := make(Subst, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// Apply returns the image of a term under s (walking chains of variable
// bindings to a fixed point).
func (s Subst) Apply(t Term) Term {
	for t.IsVar() {
		next, ok := s[t.Name]
		if !ok || next == t {
			return t
		}
		t = next
	}
	return t
}

// ApplyAtom returns a copy of the atom with s applied to every argument.
func (s Subst) ApplyAtom(a Atom) Atom {
	out := Atom{Pred: a.Pred, Args: make([]Term, len(a.Args))}
	for i, t := range a.Args {
		out.Args[i] = s.Apply(t)
	}
	return out
}

// ApplyAtoms maps ApplyAtom over a slice.
func (s Subst) ApplyAtoms(as []Atom) []Atom {
	out := make([]Atom, len(as))
	for i, a := range as {
		out[i] = s.ApplyAtom(a)
	}
	return out
}

// ApplyComparison applies s to both sides of a comparison.
func (s Subst) ApplyComparison(c Comparison) Comparison {
	return Comparison{Op: c.Op, L: s.Apply(c.L), R: s.Apply(c.R)}
}

// ApplyComparisons maps ApplyComparison over a slice.
func (s Subst) ApplyComparisons(cs []Comparison) []Comparison {
	out := make([]Comparison, len(cs))
	for i, c := range cs {
		out[i] = s.ApplyComparison(c)
	}
	return out
}

// String renders the substitution deterministically, for debugging.
func (s Subst) String() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s->%s", k, s[k].String())
	}
	sb.WriteByte('}')
	return sb.String()
}

// Match computes a one-way matcher from pattern onto target: a substitution s
// binding only variables of pattern such that s(pattern) == target. Variables
// in target are treated as constants (they may be bound *to*, not bound).
// base is not modified.
func Match(pattern, target Atom, base Subst) (Subst, bool) {
	if pattern.Pred != target.Pred || len(pattern.Args) != len(target.Args) {
		return nil, false
	}
	s := base.Clone()
	if s == nil {
		s = NewSubst()
	}
	patVars := map[string]bool{}
	for _, v := range pattern.Vars(nil) {
		patVars[v.Name] = true
	}
	for i := range pattern.Args {
		p := s.Apply(pattern.Args[i])
		t := target.Args[i]
		switch {
		case p == t:
		case p.IsVar() && patVars[p.Name]:
			s[p.Name] = t
		default:
			return nil, false
		}
	}
	return s, true
}
