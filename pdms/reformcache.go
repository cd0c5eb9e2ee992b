package pdms

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/obs"
)

// reformEntry is one reformulation-cache entry: a query's reformulation and
// what every use of it needs. It is immutable once cached.
//
// An entry is keyed either on its query with the constants written out or,
// when core.Reformulator.Parameterizable says reformulation commutes with
// substituting them, on the query's shape (lang.CQ.AppendCanonical with
// params): then ref holds the rewriting of the query with each constant
// replaced by its parameter's placeholder, and every query of the shape
// substitutes its own constants into it. Either key numbers variables
// instead of naming them, so every query of the key also gets the rewriting
// in its own variable names (rewriting).
type reformEntry struct {
	ref Reformulation
	// stored lists the stored relations the rewriting mentions, sorted and
	// distinct: the relations whose generations key the query's answers.
	stored []string
	// vars names the variables of the query ref was computed for, in the
	// order the key numbers them (varNames).
	vars []string
	// params is nil where every query of the key gets the rewriting as it
	// stands: the key wrote the constants out, or there are none. For a
	// shape's entry it gives each argument of the rewriting — disjunct by
	// disjunct, head atom first — its parameter number, -1 for a variable.
	params []int32
	// nterms, natoms and ncomps count the rewriting's atom arguments, body
	// atoms and comparisons: the sizes of a copy's backing arrays.
	nterms, natoms, ncomps int
}

// reformKey is the reformulation-cache key of q under spec generation gen:
// the generation, then q's canonical string, with its atom constants as
// parameters when params is set.
func reformKey(gen uint64, q lang.CQ, params bool) string {
	var arr [128]byte
	buf := append(strconv.AppendUint(arr[:0], gen, 10), '|')
	return string(q.AppendCanonical(buf, params))
}

// paramName is the placeholder constant a shape's reformulation carries for
// parameter i. Any injective naming would do: a parameterised query has no
// other constant, and neither has the part of the specification its
// reformulation reaches.
func paramName(i int) string { return "$" + strconv.Itoa(i) }

// newReformEntry reformulates q under sp for the cache, as the shape's
// entry when params is set.
func newReformEntry(r *core.Reformulator, q lang.CQ, params bool, sp *obs.Span) (*reformEntry, error) {
	var names, placeholders []string
	if params {
		names = q.Params(nil)
	}
	posed := q
	if len(names) > 0 {
		placeholders = make([]string, len(names))
		for i := range names {
			placeholders[i] = paramName(i)
		}
		posed = parameterize(q, names, placeholders)
	}
	out, err := r.ReformulateSpan(posed, sp)
	if err != nil {
		// Reformulate rejects a query for what its own text says, and its
		// message quotes the query: quote the caller's.
		if len(names) > 0 {
			if _, qerr := r.Reformulate(q); qerr != nil {
				err = qerr
			}
		}
		return nil, err
	}
	e := finishEntry(out, placeholders)
	e.vars = varNames(q, nil)
	return e, nil
}

// parameterize returns q with each atom constant replaced by the
// placeholder of its index in names (q.Params).
func parameterize(q lang.CQ, names, placeholders []string) lang.CQ {
	n := len(q.Head.Args)
	for _, a := range q.Body {
		n += len(a.Args)
	}
	terms := make([]lang.Term, 0, n)
	lift := func(a lang.Atom) lang.Atom {
		start := len(terms)
		for _, t := range a.Args {
			if t.IsConst() {
				t = lang.Const(placeholders[slices.Index(names, t.Name)])
			}
			terms = append(terms, t)
		}
		return lang.Atom{Pred: a.Pred, Args: terms[start:len(terms):len(terms)]}
	}
	out := lang.CQ{Head: lift(q.Head), Body: make([]lang.Atom, len(q.Body))}
	for i, a := range q.Body {
		out.Body[i] = lift(a)
	}
	return out
}

// finishEntry makes the cache entry of a reformulation, of a shape with
// these parameter placeholders when there are any.
func finishEntry(out core.Result, placeholders []string) *reformEntry {
	e := &reformEntry{ref: Reformulation{Rewriting: out.UCQ, Stats: out.Stats, Classification: out.Classification}}
	for _, d := range out.UCQ.Disjuncts {
		for _, a := range d.Body {
			if !slices.Contains(e.stored, a.Pred) {
				e.stored = append(e.stored, a.Pred)
			}
		}
	}
	slices.Sort(e.stored)
	for _, d := range out.UCQ.Disjuncts {
		e.nterms += len(d.Head.Args)
		for _, a := range d.Body {
			e.nterms += len(a.Args)
		}
		e.natoms += len(d.Body)
		e.ncomps += len(d.Comps)
	}
	if len(placeholders) == 0 {
		return e
	}
	e.params = []int32{} // a shape's, even with no argument to number
	number := func(a lang.Atom) {
		for _, t := range a.Args {
			p := -1
			if t.IsConst() {
				if p = slices.Index(placeholders, t.Name); p < 0 {
					panic(fmt.Sprintf("pdms: rewriting constant %q of a parameterised query is no parameter", t.Name))
				}
			}
			e.params = append(e.params, int32(p))
		}
	}
	for _, d := range out.UCQ.Disjuncts {
		if len(d.Comps) > 0 {
			panic(fmt.Sprintf("pdms: rewriting %s of a parameterised query has a comparison", d))
		}
		number(d.Head)
		for _, a := range d.Body {
			number(a)
		}
	}
	return e
}

// varNames appends the names of q's variables to dst in order of first
// occurrence — head, body, comparisons — the order lang.CQ.AppendCanonical
// numbers them in, so two queries of one key have their variables at the
// same positions of their lists.
func varNames(q lang.CQ, dst []string) []string {
	add := func(t lang.Term) {
		if t.IsVar() && !slices.Contains(dst, t.Name) {
			dst = append(dst, t.Name)
		}
	}
	for _, t := range q.Head.Args {
		add(t)
	}
	for _, a := range q.Body {
		for _, t := range a.Args {
			add(t)
		}
	}
	for _, c := range q.Comps {
		add(c.L)
		add(c.R)
	}
	return dst
}

// renaming maps the variables of the entry's query to names, those of a
// query of its key, position by position, and renames apart each variable
// of the rewriting's own — one reformulation introduced — that one of
// names would capture.
func (e *reformEntry) renaming(names []string) map[string]string {
	ren := make(map[string]string, len(names))
	for i, v := range e.vars {
		ren[v] = names[i]
	}
	own := map[string]bool{}
	vars := func(ts ...lang.Term) {
		for _, t := range ts {
			if t.IsVar() && !slices.Contains(e.vars, t.Name) {
				own[t.Name] = true
			}
		}
	}
	for _, d := range e.ref.Rewriting.Disjuncts {
		vars(d.Head.Args...)
		for _, a := range d.Body {
			vars(a.Args...)
		}
		for _, c := range d.Comps {
			vars(c.L, c.R)
		}
	}
	var clash []string
	for v := range own {
		if slices.Contains(names, v) {
			clash = append(clash, v)
		}
	}
	slices.Sort(clash)
	for _, v := range clash {
		w := v + "'"
		for slices.Contains(names, w) || own[w] {
			w += "'"
		}
		own[w] = true // taken by now, like the rewriting's own names
		ren[v] = w
	}
	return ren
}

// rewriting returns the entry's rewriting for q, a query of its key: the
// cached rewriting itself when q names its variables as the entry's query
// did and the key wrote the constants out; otherwise a copy with q's
// variable names in place of the entry's query's (renaming) and, for a
// shape's entry, q's constants in place of the parameters, built in one
// backing array each for terms, atoms, comparisons and disjuncts.
func (e *reformEntry) rewriting(q lang.CQ) lang.UCQ {
	var narr [16]string
	names := varNames(q, narr[:0])
	var ren map[string]string
	if !slices.Equal(names, e.vars) {
		ren = e.renaming(names)
	} else if e.params == nil {
		return e.ref.Rewriting
	}
	var carr [8]string
	var consts []string
	if e.params != nil {
		consts = q.Params(carr[:0])
	}
	src := e.ref.Rewriting.Disjuncts
	terms := make([]lang.Term, e.nterms)
	atoms := make([]lang.Atom, e.natoms)
	comps := make([]lang.Comparison, e.ncomps)
	out := make([]lang.CQ, len(src))
	rename := func(t lang.Term) lang.Term {
		if t.IsVar() {
			if n, ok := ren[t.Name]; ok {
				t = lang.Var(n)
			}
		}
		return t
	}
	k := 0
	subst := func(a lang.Atom) lang.Atom {
		args := terms[:len(a.Args):len(a.Args)]
		terms = terms[len(a.Args):]
		for i, t := range a.Args {
			if e.params != nil && e.params[k+i] >= 0 {
				t = lang.Const(consts[e.params[k+i]])
			}
			args[i] = rename(t)
		}
		k += len(a.Args)
		return lang.Atom{Pred: a.Pred, Args: args}
	}
	for i, d := range src {
		body := atoms[:len(d.Body):len(d.Body)]
		atoms = atoms[len(d.Body):]
		out[i].Head = subst(d.Head)
		for j, a := range d.Body {
			body[j] = subst(a)
		}
		out[i].Body = body
		if len(d.Comps) > 0 {
			cs := comps[:len(d.Comps):len(d.Comps)]
			comps = comps[len(d.Comps):]
			for j, c := range d.Comps {
				cs[j] = lang.Comparison{Op: c.Op, L: rename(c.L), R: rename(c.R)}
			}
			out[i].Comps = cs
		}
	}
	return lang.UCQ{Disjuncts: out}
}
