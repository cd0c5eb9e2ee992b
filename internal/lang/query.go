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
// occurrence*. Two queries with the same canonical string are identical up to
// renaming (the converse does not hold for body reorderings; callers that
// need order insensitivity should sort bodies first).
func (q CQ) Canonical() string {
	// A variable's number is its index in vars, the names in order of
	// first occurrence; queries have few, so a scan beats a map.
	var arr [128]byte
	var seen [16]string
	buf, vars := arr[:0], seen[:0]
	term := func(t Term) {
		if t.IsConst() {
			buf = append(append(buf, '='), t.Name...)
			return
		}
		i := slices.Index(vars, t.Name)
		if i < 0 {
			i = len(vars)
			vars = append(vars, t.Name)
		}
		buf = strconv.AppendInt(append(buf, '?'), int64(i), 10)
	}
	atom := func(a Atom) {
		buf = append(append(buf, a.Pred...), '(')
		for i, t := range a.Args {
			if i > 0 {
				buf = append(buf, ',')
			}
			term(t)
		}
		buf = append(buf, ')')
	}
	atom(q.Head)
	buf = append(buf, ":-"...)
	for i, a := range q.Body {
		if i > 0 {
			buf = append(buf, ',')
		}
		atom(a)
	}
	for _, c := range q.Comps {
		buf = append(buf, ',')
		term(c.L)
		buf = append(buf, c.Op.String()...)
		term(c.R)
	}
	return string(buf)
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
