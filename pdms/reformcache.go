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
// substitutes its own constants into it.
type reformEntry struct {
	ref Reformulation
	// stored lists the stored relations the rewriting mentions, sorted and
	// distinct: the relations whose generations key the query's answers.
	stored []string
	// params is nil where every query of the key gets the rewriting as it
	// stands: the key wrote the constants out, or there are none. For a
	// shape's entry it gives each argument of the rewriting — disjunct by
	// disjunct, head atom first — its parameter number, -1 for a variable;
	// natoms counts the rewriting's body atoms.
	params []int32
	natoms int
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
	return finishEntry(out, placeholders), nil
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
		e.natoms += len(d.Body)
	}
	return e
}

// rewriting returns the entry's rewriting for q, a query of its key: the
// cached rewriting itself, or for a shape's entry a copy with q's constants
// in place of the parameters, built in one backing array each for terms,
// atoms and disjuncts.
func (e *reformEntry) rewriting(q lang.CQ) lang.UCQ {
	if e.params == nil {
		return e.ref.Rewriting
	}
	var arr [8]string
	consts := q.Params(arr[:0])
	src := e.ref.Rewriting.Disjuncts
	terms := make([]lang.Term, len(e.params))
	atoms := make([]lang.Atom, e.natoms)
	out := make([]lang.CQ, len(src))
	k := 0
	subst := func(a lang.Atom) lang.Atom {
		args := terms[k : k+len(a.Args) : k+len(a.Args)]
		for i, t := range a.Args {
			if p := e.params[k+i]; p >= 0 {
				t = lang.Const(consts[p])
			}
			args[i] = t
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
	}
	return lang.UCQ{Disjuncts: out}
}
