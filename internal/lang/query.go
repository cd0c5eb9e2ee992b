package lang

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// CQ is a conjunctive query (equivalently a datalog rule):
//
//	Head :- Body[0], ..., Body[n-1], Comps...
//
// With an empty body it denotes a fact template. Set semantics throughout
// (Section 2 of the paper).
type CQ struct {
	Head  Atom
	Body  []Atom
	Comps []Comparison
}

// Clone returns a deep copy.
func (q CQ) Clone() CQ {
	out := CQ{Head: q.Head.Clone()}
	if q.Body != nil {
		out.Body = make([]Atom, len(q.Body))
		for i, a := range q.Body {
			out.Body[i] = a.Clone()
		}
	}
	if q.Comps != nil {
		out.Comps = make([]Comparison, len(q.Comps))
		copy(out.Comps, q.Comps)
	}
	return out
}

// Vars returns the distinct variables of the query in order of first
// occurrence (head first, then body, then comparisons).
func (q CQ) Vars() []Term {
	var vs []Term
	vs = q.Head.Vars(vs)
	for _, a := range q.Body {
		vs = a.Vars(vs)
	}
	for _, c := range q.Comps {
		vs = c.Vars(vs)
	}
	return vs
}

// HeadVars returns the distinct variables of the head.
func (q CQ) HeadVars() []Term { return q.Head.Vars(nil) }

// IsSafe reports whether every head variable appears in the body (range
// restriction). Queries must be safe to be evaluable.
func (q CQ) IsSafe() bool {
	var bodyVars []Term
	for _, a := range q.Body {
		bodyVars = a.Vars(bodyVars)
	}
	for _, v := range q.HeadVars() {
		if !containsTerm(bodyVars, v) {
			return false
		}
	}
	return true
}

// HasProjection reports whether the query projects away any body variable,
// i.e. some body variable does not appear in the head. Theorem 3.2
// distinguishes projection-free equality descriptions.
func (q CQ) HasProjection() bool {
	head := map[Term]bool{}
	for _, v := range q.HeadVars() {
		head[v] = true
	}
	for _, a := range q.Body {
		for _, t := range a.Args {
			if t.IsVar() && !head[t] {
				return true
			}
		}
	}
	return false
}

// Apply returns a copy of q with substitution s applied everywhere.
func (q CQ) Apply(s Subst) CQ {
	return CQ{
		Head:  s.ApplyAtom(q.Head),
		Body:  s.ApplyAtoms(q.Body),
		Comps: s.ApplyComparisons(q.Comps),
	}
}

// String renders the query as "Head :- Body, Comps." (":- ." for facts).
func (q CQ) String() string {
	var sb strings.Builder
	sb.WriteString(q.Head.String())
	if len(q.Body) > 0 || len(q.Comps) > 0 {
		sb.WriteString(" :- ")
		for i, a := range q.Body {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(a.String())
		}
		for i, c := range q.Comps {
			if i > 0 || len(q.Body) > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.String())
		}
	}
	return sb.String()
}

// Preds returns the distinct body predicate names in order of first
// occurrence.
func (q CQ) Preds() []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range q.Body {
		if !seen[a.Pred] {
			seen[a.Pred] = true
			out = append(out, a.Pred)
		}
	}
	return out
}

// Canonical returns a canonical string for q under variable renaming of the
// *head-argument pattern and body shape with variables numbered by first
// occurrence*. Constants are written with their length, so two queries with
// the same canonical string are identical up to renaming (the converse does
// not hold for body reorderings; callers that need order insensitivity
// should sort bodies first).
func (q CQ) Canonical() string {
	var arr [128]byte
	return string(q.AppendCanonical(arr[:0], false))
}

// AppendCanonical appends q's canonical string to dst and returns the
// extended slice. With params, each atom constant (head and body) is written
// as a parameter "$n" instead, numbered by first occurrence as Params lists
// them, so equal constants share a number; comparison constants are written
// out either way. Two queries then share a string when they differ at most
// in the values of their atom constants, equal ones staying equal.
func (q CQ) AppendCanonical(dst []byte, params bool) []byte {
	// A variable's number is its index in vars, the names in order of
	// first occurrence, and a parameter's its index in ps; queries have
	// few, so a scan beats a map.
	var seenVars [16]string
	var seenParams [8]string
	vars, ps := seenVars[:0], seenParams[:0]
	number := func(names []string, name string) ([]string, int) {
		i := slices.Index(names, name)
		if i < 0 {
			i = len(names)
			names = append(names, name)
		}
		return names, i
	}
	term := func(t Term, inAtom bool) {
		var i int
		switch {
		case t.IsVar():
			vars, i = number(vars, t.Name)
			dst = strconv.AppendInt(append(dst, '?'), int64(i), 10)
		case params && inAtom:
			ps, i = number(ps, t.Name)
			dst = strconv.AppendInt(append(dst, '$'), int64(i), 10)
		default:
			dst = append(strconv.AppendInt(append(dst, '='), int64(len(t.Name)), 10), ':')
			dst = append(dst, t.Name...)
		}
	}
	atom := func(a Atom) {
		dst = append(append(dst, a.Pred...), '(')
		for i, t := range a.Args {
			if i > 0 {
				dst = append(dst, ',')
			}
			term(t, true)
		}
		dst = append(dst, ')')
	}
	atom(q.Head)
	dst = append(dst, ":-"...)
	for i, a := range q.Body {
		if i > 0 {
			dst = append(dst, ',')
		}
		atom(a)
	}
	for _, c := range q.Comps {
		dst = append(dst, ',')
		term(c.L, false)
		dst = append(dst, c.Op.String()...)
		term(c.R, false)
	}
	return dst
}

// Params appends q's atom constants (head, then body) to dst, each value
// once, in order of first occurrence: parameter n of AppendCanonical's
// parameterised string stands for the n-th of them.
func (q CQ) Params(dst []string) []string {
	base := len(dst)
	add := func(a Atom) {
		for _, t := range a.Args {
			if t.IsConst() && !slices.Contains(dst[base:], t.Name) {
				dst = append(dst, t.Name)
			}
		}
	}
	add(q.Head)
	for _, a := range q.Body {
		add(a)
	}
	return dst
}

// UCQ is a union of conjunctive queries sharing a head predicate and arity.
type UCQ struct {
	Disjuncts []CQ
}

// Add appends a disjunct.
func (u *UCQ) Add(q CQ) { u.Disjuncts = append(u.Disjuncts, q) }

// Len returns the number of disjuncts.
func (u UCQ) Len() int { return len(u.Disjuncts) }

// String renders each disjunct on its own line.
func (u UCQ) String() string {
	lines := make([]string, len(u.Disjuncts))
	for i, q := range u.Disjuncts {
		lines[i] = q.String()
	}
	return strings.Join(lines, "\n")
}

// Validate checks head compatibility across disjuncts.
func (u UCQ) Validate() error {
	if len(u.Disjuncts) == 0 {
		return nil
	}
	h := u.Disjuncts[0].Head
	for _, q := range u.Disjuncts[1:] {
		if q.Head.Pred != h.Pred || q.Head.Arity() != h.Arity() {
			return fmt.Errorf("ucq: incompatible disjunct head %s vs %s", q.Head, h)
		}
	}
	return nil
}
