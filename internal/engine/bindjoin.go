package engine

import (
	"fmt"

	"repro/internal/lang"
	"repro/internal/rel"
)

// BindJoin runs plan p over rows that fetch supplies atom by atom: the
// local half of a bind-join (Haas, Kossmann, Wimmers and Yang, "Optimizing
// Queries across Diverse Data Sources", VLDB 1997), whose remote half is
// fetch. p is q's plan, from a PlanCache as the engine's own runs get
// theirs: BindJoin compiles nothing. The plan's steps run breadth-first
// over the partial join, held as slot rows, whose parameters are q's. Each
// step calls fetch(i, keyPos, keys) for its atom q.Body[i]: keyPos are the
// atom's positions that earlier steps bound, and keys the distinct values
// the partial holds there, one row per key in keyPos's order (both nil
// when no position is bound). An atom's constants are never among them:
// fetch applies them itself. The fetched rows are chained by key, and one
// pass over the partial extends each of its rows by the rows of its key,
// applying the step's repeated variables, binds and comparisons.
//
// fetch may return more than the atom admits: a row of another arity, or
// one that disagrees with the atom's constants, its repeated variables or
// every key, is dropped. BindJoin neither writes to nor reorders the rows
// fetch returns, and never reuses a slice it hands to fetch.
//
// A false variable-free comparison answers empty before any fetch, and a
// step that empties the partial ends the join: no later atom is fetched. A
// comparison on a variable the body never binds is an error once a
// complete match exists, as in Engine.EvalCQ. The answer is distinct and
// in rel.Compare order, in a slice of the caller's.
func BindJoin(p *Plan, q lang.CQ, fetch func(i int, keyPos []int, keys [][]string) ([]rel.Tuple, error)) ([]rel.Tuple, error) {
	if p.unsat {
		return nil, nil
	}
	w := p.nslots
	// The partial join is n slot rows of w values each, back to back. It
	// starts as the unit row, the join's identity.
	partial, n := make([]string, w), 1
	p.seed(partial, q)
	seed := partial // every partial row holds the parameters seed holds
	var kb []byte
	for i := range p.steps {
		st := &p.steps[i]
		var keyPos, keySlots []int
		for j, s := range st.keyParts {
			if s >= p.vars {
				keyPos = append(keyPos, st.keyCols[j])
				keySlots = append(keySlots, s)
			}
		}
		// The partial's distinct keys, numbered by first appearance, and
		// the number of each partial row's key. With no bound position
		// every row has key 0. There are at most n keys, so the keys and
		// their values are carved from slices of that size.
		var keys [][]string
		var ids map[string]int
		kid := make([]int, n)
		if len(keyPos) > 0 {
			ids = map[string]int{}
			keys = make([][]string, 0, n)
			vals := make([]string, 0, n*len(keySlots))
			for r := range n {
				row := partial[r*w : (r+1)*w]
				kb = appendColsKey(kb[:0], row, keySlots)
				k, ok := ids[string(kb)]
				if !ok {
					k = len(keys)
					ids[string(kb)] = k
					for _, s := range keySlots {
						vals = append(vals, row[s])
					}
					keys = append(keys, vals[len(vals)-len(keySlots):len(vals):len(vals)])
				}
				kid[r] = k
			}
		}
		rows, err := fetch(st.atom, keyPos, keys)
		if err != nil {
			return nil, err
		}

		// Chain the rows the atom admits by key: first[k] is key k's first
		// row, succ[r] the row after r (-1 ends a chain) and size[k] the
		// chain's length.
		first, size := make([]int, max(len(keys), 1)), make([]int, max(len(keys), 1))
		for k := range first {
			first[k] = -1
		}
		succ := make([]int, len(rows))
	chain:
		for r := len(rows) - 1; r >= 0; r-- {
			t := rows[r]
			if len(t) != st.arity {
				continue
			}
			for j, s := range st.keyParts {
				if s < p.vars && t[st.keyCols[j]] != seed[s] {
					continue chain
				}
			}
			k := 0
			if ids != nil {
				kb = appendColsKey(kb[:0], t, keyPos)
				var ok bool
				if k, ok = ids[string(kb)]; !ok {
					continue
				}
			}
			succ[r], first[k] = first[k], r
			size[k]++
		}

		// One pass over the partial extends each row by its key's rows. No
		// more rows than the chains hold pass, so the next partial is
		// sized for them all.
		rowsOut := 0
		for _, k := range kid {
			rowsOut += size[k]
		}
		next := make([]string, 0, rowsOut*w)
		m := 0
		for r, k := range kid {
			row := partial[r*w : (r+1)*w]
			for f := first[k]; f >= 0; f = succ[f] {
				next = append(next, row...)
				if st.admit(rows[f], next[len(next)-w:]) {
					m++
				} else {
					next = next[:len(next)-w]
				}
			}
		}
		if m == 0 {
			return nil, nil
		}
		partial, n = next, m
	}
	if len(p.lateComps) > 0 {
		return nil, fmt.Errorf("engine: comparison %s not bound by body", p.lateComps[0])
	}

	a := len(p.head)
	vals := make([]string, n*a)
	out := make([]rel.Tuple, n)
	for r := range out {
		out[r] = vals[r*a : (r+1)*a : (r+1)*a]
		p.project(out[r], partial[r*w:(r+1)*w])
	}
	return rel.SortDistinct(out), nil
}
