package constraints

import (
	"repro/internal/lang"
)

// solve decides satisfiability of a conjunction of comparisons over a dense
// unbounded ordered domain. The algorithm:
//
//  1. Union equality-related terms (union-find); a class holding two
//     distinct constants is inconsistent.
//  2. Build a directed graph over classes with <= and < edges (including
//     the intrinsic order among constants) and compute the transitive
//     closure tracking strictness; a class strictly preceding itself is
//     inconsistent.
//  3. Merge classes related by x <= y and y <= x and repeat until fixpoint
//     (each merge reduces the class count, so this terminates).
//  4. Check != constraints and constant-order consistency on the result.
func solve(comps []lang.Comparison) bool {
	uf := newUnionFind()
	type edge struct {
		from, to lang.Term
		strict   bool
	}
	var edges []edge
	var neqs [][2]lang.Term

	for _, c := range comps {
		if c.L.IsConst() && c.R.IsConst() {
			if !c.Op.EvalConst(c.L, c.R) {
				return false
			}
			continue
		}
		uf.touch(c.L)
		uf.touch(c.R)
		switch c.Op {
		case lang.OpEQ:
			uf.union(c.L, c.R)
		case lang.OpNE:
			neqs = append(neqs, [2]lang.Term{c.L, c.R})
		case lang.OpLT:
			edges = append(edges, edge{c.L, c.R, true})
		case lang.OpLE:
			edges = append(edges, edge{c.L, c.R, false})
		case lang.OpGT:
			edges = append(edges, edge{c.R, c.L, true})
		case lang.OpGE:
			edges = append(edges, edge{c.R, c.L, false})
		}
	}

	for {
		roots, classConst, ok := uf.classes()
		if !ok {
			return false // two distinct constants in one class
		}
		n := len(roots)
		idx := make(map[lang.Term]int, n)
		for i, r := range roots {
			idx[r] = i
		}
		le := make([][]bool, n)
		lt := make([][]bool, n)
		for i := range le {
			le[i] = make([]bool, n)
			lt[i] = make([]bool, n)
			le[i][i] = true
		}
		for _, e := range edges {
			i, j := idx[uf.find(e.from)], idx[uf.find(e.to)]
			le[i][j] = true
			if e.strict {
				lt[i][j] = true
			}
		}
		// Intrinsic order among constant classes.
		for i := 0; i < n; i++ {
			ci, iOK := classConst[roots[i]]
			if !iOK {
				continue
			}
			for j := 0; j < n; j++ {
				cj, jOK := classConst[roots[j]]
				if !jOK || i == j {
					continue
				}
				if lang.CompareConst(ci, cj) < 0 {
					le[i][j] = true
					lt[i][j] = true
				}
			}
		}
		// Warshall closure with strictness propagation.
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				if !le[i][k] {
					continue
				}
				for j := 0; j < n; j++ {
					if !le[k][j] {
						continue
					}
					le[i][j] = true
					if lt[i][k] || lt[k][j] {
						lt[i][j] = true
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			if lt[i][i] {
				return false // strict cycle
			}
		}
		// Merge mutually-<= classes and restart if anything merged.
		merged := false
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if le[i][j] && le[j][i] {
					uf.union(roots[i], roots[j])
					merged = true
				}
			}
		}
		if merged {
			continue
		}
		for _, ne := range neqs {
			if uf.find(ne[0]) == uf.find(ne[1]) {
				return false
			}
		}
		// Entailed order among constant classes must match intrinsic order.
		for i := 0; i < n; i++ {
			ci, iOK := classConst[roots[i]]
			if !iOK {
				continue
			}
			for j := 0; j < n; j++ {
				cj, jOK := classConst[roots[j]]
				if !jOK || i == j {
					continue
				}
				cmp := lang.CompareConst(ci, cj)
				if le[i][j] && cmp > 0 {
					return false
				}
				if lt[i][j] && cmp >= 0 {
					return false
				}
			}
		}
		return true
	}
}

// unionFind over terms with path compression. Constant terms are preferred
// as class representatives so constant lookups are direct.
type unionFind struct {
	parent map[lang.Term]lang.Term
}

func newUnionFind() *unionFind {
	return &unionFind{parent: map[lang.Term]lang.Term{}}
}

func (u *unionFind) touch(t lang.Term) {
	if _, ok := u.parent[t]; !ok {
		u.parent[t] = t
	}
}

func (u *unionFind) find(t lang.Term) lang.Term {
	u.touch(t)
	r := t
	for u.parent[r] != r {
		r = u.parent[r]
	}
	for u.parent[t] != r {
		u.parent[t], t = r, u.parent[t]
	}
	return r
}

func (u *unionFind) union(a, b lang.Term) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if rb.IsConst() && !ra.IsConst() {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
}

// classes returns the current class representatives, a map representative ->
// constant member (if any), and false if some class contains two distinct
// constants.
func (u *unionFind) classes() (roots []lang.Term, classConst map[lang.Term]lang.Term, ok bool) {
	classConst = map[lang.Term]lang.Term{}
	seen := map[lang.Term]bool{}
	terms := make([]lang.Term, 0, len(u.parent))
	for t := range u.parent {
		terms = append(terms, t)
	}
	for _, t := range terms {
		r := u.find(t)
		if !seen[r] {
			seen[r] = true
			roots = append(roots, r)
		}
		if t.IsConst() {
			if prev, has := classConst[r]; has && prev != t {
				return nil, nil, false
			}
			classConst[r] = t
		}
	}
	return roots, classConst, true
}
