package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/constraints"
	"repro/internal/lang"
	"repro/internal/obs"
)

// nodeKind distinguishes goal nodes from rule nodes (Section 4.2 step 2).
type nodeKind uint8

const (
	goalNode nodeKind = iota
	ruleNode
)

// node is a rule-goal tree node.
type node struct {
	kind nodeKind

	// label is the atom of a goal node.
	label atom

	// descID is the description that created a rule node (empty for the
	// query's own rule node).
	descID string
	// comps are the comparison predicates contributed by the description
	// instance at this rule node (already instantiated).
	comps []comparison
	// export carries bindings the expansion forces on the goal's own
	// variables, to be applied to the final rewriting: for inclusion
	// expansions the MCD export; for definitional expansions the bindings
	// the head unification imposes on the goal label (e.g. unifying goal
	// SkilledPerson(p, c) with rule head SkilledPerson(p, "Doctor") binds
	// c to "Doctor").
	export []binding
	// unc, for rule nodes created by an inclusion expansion, lists the
	// sibling goal nodes of the parent that the MCD covers (always
	// including the parent goal itself) — the paper's unc(n) label.
	unc []*node

	// children: for a goal node, its alternative expansions (rule nodes);
	// for a rule node, its subgoals (goal nodes).
	children []*node
	parent   *node

	// constraint is the node's constraint label c(n); nil is the empty
	// conjunction.
	constraint *constraints.Set

	// banned is the set of descriptions used on the path from the root to
	// this node (shared with the parent when unchanged).
	banned bitset

	// stored marks goal nodes over stored relations (leaves).
	stored bool
	// dead marks goal nodes that cannot contribute any rewriting (no
	// expansion, not stored) — set during construction for pruning.
	dead bool
	// covered is scratch for ruleNodeProductive and extraction: set while
	// the goal counts as covered in its rule node.
	covered bool
}

// Options configures tree construction and extraction. The Section 4.3
// optimizations (memoization, unsatisfiable-label pruning, priority
// expansion, the useless-path rule, upward constraint propagation) always
// run; only the deep-topology pruning can be switched off.
type Options struct {
	// MaxNodes caps the number of tree nodes; 0 means the default
	// (2,000,000). Construction stops with an error when exceeded.
	MaxNodes int
	// NoPruneSubsumed disables the deep-topology subtree pruning (see
	// prune.go): hopeless-predicate pruning (a goal whose predicate can
	// never bottom out in stored relations is marked dead without building
	// its subtree) and duplicate-description pruning (an expansion whose
	// originating description is content-identical to an already-built
	// sibling expansion with the same instantiation is skipped — replicated
	// mappings make these common). Both prunes leave the extracted rewriting
	// set unchanged; on by default.
	NoPruneSubsumed bool
	// KeepRedundant disables containment-based redundancy elimination of
	// the final union (cheap minimization is on by default only in
	// Reformulate, never in streaming).
	KeepRedundant bool
	// MaxRewritings caps extraction (0 = all).
	MaxRewritings int
}

const defaultMaxNodes = 2_000_000

// Stats reports reformulation metrics (the quantities of Figures 3 and 4).
type Stats struct {
	GoalNodes      int // goal nodes created
	RuleNodes      int // rule nodes created
	PrunedUnsat    int // expansions suppressed by unsatisfiable labels
	PrunedEmpty    int // expansions skipped over never-groundable predicates
	PrunedSubsumed int // duplicate-description expansions skipped
	MemoHits       int // goal expansions skipped by the unproductive-memo
	DeadEnds       int // goal nodes with no productive expansion
	UselessSkipped int // subgoals skipped by the useless-path rule
	Rewritings     int // conjunctive rewritings emitted
	DiscardUnsat   int // candidate rewritings discarded as unsatisfiable
}

// Nodes returns the total node count (the paper's Figure 3 metric).
func (s Stats) Nodes() int { return s.GoalNodes + s.RuleNodes }

// builder constructs the rule-goal tree of one query and extracts its
// rewritings. It owns all the state a reformulation mutates; the catalog it
// reads is shared and never written.
type builder struct {
	cat   *catalog
	opts  Options
	stats Stats
	err   error
	// query is the query being reformulated, head its interned head (the
	// root's label).
	query lang.CQ
	head  atom

	// names holds each variable's name stem, by id. The first nq are the
	// query's own variables, printed under their names; the others print
	// as stem#id (printed caches these).
	names   []string
	nq      int
	printed []string
	// consts holds the query's constants the catalog does not know; their
	// ids follow the catalog's.
	consts []string

	// sub is a substitution by variable id (noTerm where unbound) and trail
	// the variables bound in it, in order: undo unbinds back to a mark.
	// Head unification runs on it while the tree is built, and extraction's
	// export map afterwards.
	sub   []term
	trail []term

	// memo records, per contextKey, the ban sets (restricted to the goal
	// predicate's reach cone) under which the goal proved unproductive. A
	// goal is skippable when some recorded set is a SUBSET of its own
	// banned set: forbidding strictly more descriptions can only remove
	// expansions, so unproductivity is monotone in the ban set.
	memo map[string][]bitset

	// keybuf holds the key being built; canon numbers its variables (by
	// id, -1 when unnumbered) and numbered lists them for endKey.
	keybuf   []byte
	canon    []int32
	numbered []term
	// sigs is a stack of the duplicate-description signatures of the
	// expansions built under the goals on the current path, their bytes
	// in sigBytes.
	sigs     []sigEntry
	sigBytes []byte

	// kids is a stack of the rule nodes built under the goals on the
	// current path; a goal takes its own when its expansion ends.
	kids []*node
	// order is a stack of rule-node children in expansion order, body
	// scratch for instantiated subgoals, mcds a stack of MCD lists.
	order []*node
	body  []atom
	mcds  []mcd
	f     former

	// Extraction (extract.go) accumulates one rewriting at a time on
	// stacks: stored atoms, comparisons and covered goals, with the
	// rule nodes' exports composed in sub. Every push is undone back to a
	// mark, so atoms and comparisons come out in push order. conts is the
	// solvers' stack of continuations and yield the consumer.
	atoms  []atom
	comps  []comparison
	covers []*node
	conts  []cont
	yield  func(lang.CQ) bool

	// The tree is carved from these arenas.
	nodes []node
	terms []term
	binds []binding
	ptrs  []*node
	ints  []int
	words []uint64
}

// sigEntry is one recorded signature: sigBytes[off:end], and whether its
// expansion proved productive.
type sigEntry struct {
	off, end int
	prod     bool
}

// carve returns n zeroed elements from the chunked arena *a. Slices carved
// earlier stay valid: a full chunk is left to them, not reallocated. Chunks
// double from 16 elements to 512, so a small tree allocates little.
func carve[T any](a *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	if cap(*a)-len(*a) < n {
		*a = make([]T, 0, max(n, min(max(2*cap(*a), 16), 512)))
	}
	l := len(*a)
	*a = (*a)[:l+n]
	return (*a)[l : l+n : l+n]
}

// build constructs the full tree for query q and returns the root. sp, when
// non-nil, receives one child span per rule-goal tree node expanded (goal
// nodes as "goal", their expansions as "rule"/"mcd" children), nested to
// mirror the tree.
func (r *Reformulator) build(q lang.CQ, sp *obs.Span) (*node, *builder, error) {
	b := &builder{cat: r.cat, opts: r.opts, query: q, memo: map[string][]bitset{}}
	maxNodes := b.opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = defaultMaxNodes
	}
	cq, err := b.compileQuery(q)
	if err != nil {
		return nil, nil, err
	}
	root := b.newNode(goalNode, nil)
	root.label, b.head = cq.head, cq.head
	b.stats.GoalNodes++
	qr := b.newNode(ruleNode, root)
	qr.comps = cq.comps
	if len(q.Comps) > 0 {
		qr.constraint = constraints.New(q.Comps...)
	}
	b.stats.RuleNodes++
	root.children = carve(&b.ptrs, 1)
	root.children[0] = qr
	qr.children = carve(&b.ptrs, len(cq.body))
	for i, g := range cq.body {
		gn := b.newNode(goalNode, qr)
		gn.label, gn.constraint, gn.stored = g, qr.constraint, b.cat.preds[g.pred].stored
		qr.children[i] = gn
		b.stats.GoalNodes++
	}
	// Expand each subgoal depth-first.
	b.expandChildren(qr, maxNodes, sp)
	if b.err != nil {
		return nil, nil, b.err
	}
	if sp != nil {
		sp.SetInt("goal_nodes", int64(b.stats.GoalNodes))
		sp.SetInt("rule_nodes", int64(b.stats.RuleNodes))
		sp.SetInt("memo_hits", int64(b.stats.MemoHits))
		sp.SetInt("pruned_unsat", int64(b.stats.PrunedUnsat))
		sp.SetInt("pruned_empty", int64(b.stats.PrunedEmpty))
		sp.SetInt("pruned_subsumed", int64(b.stats.PrunedSubsumed))
	}
	return root, b, nil
}

// compileQuery interns q: its variables become ids 0..nq-1 in order of
// first occurrence, its head the root's label.
func (b *builder) compileQuery(q lang.CQ) (compiled, error) {
	cq := compile(q, func(name string) int32 {
		if p, ok := b.cat.predID[name]; ok {
			return p
		}
		return -1
	}, b.constant)
	for i, a := range cq.body {
		if a.pred < 0 {
			return compiled{}, fmt.Errorf("core: unknown predicate %s", q.Body[i].Pred)
		}
	}
	cq.head.pred = -1
	b.fresh(cq.names)
	b.nq = len(cq.names)
	return cq, nil
}

// constant returns the id of a query constant: the catalog's when the
// specification mentions it, else one of the builder's own.
func (b *builder) constant(name string) term {
	if id, ok := b.cat.constID[name]; ok {
		return constTerm(id)
	}
	id := slices.Index(b.consts, name)
	if id < 0 {
		id = len(b.consts)
		b.consts = append(b.consts, name)
	}
	return constTerm(len(b.cat.consts) + id)
}

// fresh renames a block of variables apart: it gives them the next free
// ids and returns the first.
func (b *builder) fresh(stems []string) term {
	base := term(len(b.names))
	b.names = append(b.names, stems...)
	for range stems {
		b.sub = append(b.sub, noTerm)
		b.canon = append(b.canon, -1)
	}
	return base
}

// shift renames a compiled rule's or view's term into the block at base.
func shift(t, base term) term {
	if t.isVar() {
		return t + base
	}
	return t
}

// apply returns t's image under sub, walking chains of bindings.
func (b *builder) apply(t term) term {
	for t.isVar() {
		n := b.sub[t]
		if n == noTerm || n == t {
			return t
		}
		t = n
	}
	return t
}

func (b *builder) bind(v, t term) {
	b.sub[v] = t
	b.trail = append(b.trail, v)
}

// undo unbinds every variable bound since the trail was mark long.
func (b *builder) undo(mark int) {
	for _, v := range b.trail[mark:] {
		b.sub[v] = noTerm
	}
	b.trail = b.trail[:mark]
}

// unify extends sub to a most general unifier of x and y.
func (b *builder) unify(x, y term) bool {
	x, y = b.apply(x), b.apply(y)
	switch {
	case x == y:
	case x.isVar():
		b.bind(x, y)
	case y.isVar():
		b.bind(y, x)
	default: // distinct constants
		return false
	}
	return true
}

func (b *builder) newNode(kind nodeKind, parent *node) *node {
	n := &carve(&b.nodes, 1)[0]
	n.kind, n.parent = kind, parent
	return n
}

// ban returns ban set s extended by description d.
func (b *builder) ban(s bitset, d int) bitset {
	out := bitset(carve(&b.words, max(len(s), d>>6+1)))
	copy(out, s)
	out.set(d)
	return out
}

// child starts a trace span under sp, allocating nothing when untraced.
func child(sp *obs.Span, name, k, v string) *obs.Span {
	if sp == nil {
		return nil
	}
	return sp.Child(name, obs.Attr{K: k, V: v})
}

// expandChildren expands every goal child of rule node rn in priority
// order, applying the Section 4.3 useless-path rule: after expanding a
// child gn whose only reformulation route is a single inclusion view, if
// every resulting expansion also covers gn's sole sibling, the sibling's
// own expansions are redundant and it is left unexpanded (extraction covers
// it through gn's unc labels).
func (b *builder) expandChildren(rn *node, maxNodes int, sp *obs.Span) {
	start, end := b.orderChildren(rn.children)
	var skip *node
	for i := start; i < end; i++ {
		gn := b.order[i]
		if gn == skip {
			b.stats.UselessSkipped++
			continue
		}
		b.expand(gn, maxNodes, sp)
		if b.err != nil {
			return
		}
		if len(rn.children) == 2 {
			if other := b.uselessSibling(rn, gn); other != nil {
				skip = other
			}
		}
	}
	b.order = b.order[:start]
}

// uselessSibling returns gn's sibling when the useless-path conditions hold
// for expanded child gn of rule node rn, else nil. Restricted to two-child
// rule nodes: there, gn's resolvers can only be its own expansions (the
// sibling stays unexpanded, so no competing MCDs targeting it exist), and
// if all of them cover the sibling, the sibling never needs its own.
func (b *builder) uselessSibling(rn *node, gn *node) *node {
	if gn.stored || gn.dead || len(gn.children) == 0 {
		return nil
	}
	if p := &b.cat.preds[gn.label.pred]; len(p.rules) > 0 || len(p.views) != 1 {
		return nil // a definitional expansion would not cover the sibling
	}
	var other *node
	for _, c := range rn.children {
		if c != gn {
			other = c
		}
	}
	if other == nil || other.stored {
		return nil
	}
	for _, cr := range gn.children {
		if !slices.Contains(cr.unc, other) {
			return nil
		}
	}
	return other
}

// contextKey canonicalizes a goal node for the unproductive-memo. A goal's
// expansions depend not only on its own label but on its whole rule-node
// context: its siblings (MCD closure may need to cover them) and the
// required variables (the parent goal's label). The key therefore
// canonicalizes [parent-goal label; self label; sibling labels in order]
// with variables numbered by first occurrence — two goals with equal keys
// have isomorphic expansion problems.
func (b *builder) contextKey(n *node) []byte {
	b.keybuf = b.keybuf[:0]
	b.putAtom(n.parent.parent.label, false)
	b.putAtom(n.label, false)
	b.putInt(uint64(len(n.parent.children)))
	for _, sib := range n.parent.children {
		if sib != n {
			b.putAtom(sib.label, false)
		}
	}
	return b.endKey()
}

// memoUnproductive reports whether the memo proves n unproductive: some
// recorded ban set for its context is a subset of n's. Recorded sets lie in
// the goal predicate's cone, so comparing against n's whole ban set is
// comparing against its restriction to the cone.
func (b *builder) memoUnproductive(key []byte, banned bitset) bool {
	return slices.ContainsFunc(b.memo[string(key)], func(s bitset) bool { return s.subsetOf(banned) })
}

// memoRecord stores an unproductive finding, dropping recorded supersets.
func (b *builder) memoRecord(key []byte, banned bitset) {
	kept := slices.DeleteFunc(b.memo[string(key)], func(s bitset) bool { return banned.subsetOf(s) })
	b.memo[string(key)] = append(kept, banned)
}

// expand grows the subtree under goal node n depth-first and returns whether
// the subtree is productive (some choice of expansions bottoms out in stored
// relations for n and, recursively, for all subgoals of the chosen rules).
func (b *builder) expand(n *node, maxNodes int, sp *obs.Span) bool {
	if b.err != nil {
		return false
	}
	if n.stored {
		return true
	}
	if b.stats.Nodes() > maxNodes {
		b.err = fmt.Errorf("core: node budget exceeded (%d nodes); the PDMS may be too deep or too replicated — raise Options.MaxNodes", maxNodes)
		return false
	}
	pi := &b.cat.preds[n.label.pred]
	ns := child(sp, "goal", "pred", pi.name)
	defer ns.End()
	if !b.opts.NoPruneSubsumed && !pi.ground {
		// No chain of rules and views grounds this predicate in stored
		// relations: the subtree cannot contribute a rewriting, and no
		// sibling MCD can cover the goal either (see prune.go). Dead
		// without expansion.
		b.stats.PrunedEmpty++
		n.dead = true
		b.stats.DeadEnds++
		ns.Set("dead", "true")
		ns.Set("pruned", "empty")
		return false
	}
	if len(b.memo) > 0 && b.memoUnproductive(b.contextKey(n), n.banned) {
		// Known unproductive under a weaker (or equal) ban set: skip
		// building the subtree entirely.
		b.stats.MemoHits++
		n.dead = true
		b.stats.DeadEnds++
		ns.Set("memo", "hit")
		ns.Set("dead", "true")
		return false
	}

	productive := false

	// sigs is where the signatures of n's expansions start on the stack
	// (-1 when duplicate-description pruning is off), kids its children.
	sigs, sigOff, kids := -1, len(b.sigBytes), len(b.kids)
	if !b.opts.NoPruneSubsumed {
		sigs = len(b.sigs)
	}

	// Case 1: definitional expansion (GAV-style).
	for _, ru := range pi.rules {
		if !ru.fromInclusion && n.banned.has(ru.desc) {
			continue
		}
		if b.definitionalChild(n, ru, maxNodes, ns, sigs) {
			productive = true
		}
		if b.err != nil {
			return false
		}
	}

	// Case 2: inclusion expansion (LAV-style) via MCDs against the
	// conjunction formed by n and its siblings.
	parent := n.parent
	for _, v := range pi.views {
		if n.banned.has(v.desc) {
			continue
		}
		start, end := b.formMCDs(parent.children, n, parent.parent.label, v)
		for i := start; i < end; i++ {
			if b.inclusionChild(n, v, b.mcds[i], maxNodes, ns, sigs) {
				productive = true
			}
			if b.err != nil {
				return false
			}
		}
		b.mcds = b.mcds[:start]
	}
	if sigs >= 0 {
		b.sigs, b.sigBytes = b.sigs[:sigs], b.sigBytes[:sigOff]
	}
	n.children = carve(&b.ptrs, len(b.kids)-kids)
	copy(n.children, b.kids[kids:])
	b.kids = b.kids[:kids]

	if productive {
		if !b.propagateUp(n) {
			productive = false
			b.stats.PrunedUnsat++
		}
	}
	if !productive {
		n.dead = true
		b.stats.DeadEnds++
		ns.Set("dead", "true")
		// Only descriptions reachable from this predicate can influence
		// the subtree; restricting the ban set to that cone makes memo
		// entries comparable across unrelated branches.
		b.memoRecord(b.contextKey(n), n.banned.within(pi.reach))
	}
	return productive
}

// propagateUp hoists comparisons implied by EVERY live expansion of n into
// n's own constraint (the least subsuming conjunction of the expansion
// disjunction, projected onto n's variables — the paper's upward
// predicate-move-around remark). It reports false when the strengthened
// label contradicts n's context, making n a dead end. The hoisting is sound
// for dead-end detection because any rewriting through n goes through some
// expansion, and all of them entail the hoisted constraints.
func (b *builder) propagateUp(n *node) bool {
	for _, rn := range n.children {
		if len(rn.comps) == 0 {
			return true // an unconstrained expansion exists: nothing to hoist
		}
	}
	var vars []lang.Term
	for i, t := range n.label.args {
		if n.label.firstVar(i) {
			vars = append(vars, b.langTerm(t))
		}
	}
	var meet *constraints.Set
	for _, rn := range n.children {
		proj := rn.constraint.Project(vars)
		if meet == nil {
			meet = proj
			continue
		}
		// Keep only comparisons the new projection also implies.
		kept := &constraints.Set{}
		for _, c := range meet.Comparisons() {
			if proj.Implies(c) {
				kept.Add(c)
			}
		}
		meet = kept
		if meet.Len() == 0 {
			return true
		}
	}
	if meet == nil || meet.Len() == 0 {
		return true
	}
	strengthened := n.constraint.And(meet)
	if !strengthened.Satisfiable() {
		return false
	}
	n.constraint = strengthened
	return true
}

// constrain returns n's constraint label conjoined with comps, and whether
// the expansion survives unsatisfiable-label pruning.
func (b *builder) constrain(n *node, comps []comparison) (*constraints.Set, bool) {
	if len(comps) == 0 {
		return n.constraint, true
	}
	c := n.constraint.And(constraints.New(b.langComps(comps)...))
	if !c.Satisfiable() {
		b.stats.PrunedUnsat++
		return nil, false
	}
	return c, true
}

// definitionalChild performs one definitional expansion of goal node n with
// rule ru; returns productivity of the new subtree. sigs is where n's
// expansion signatures start (-1 when pruning is disabled).
func (b *builder) definitionalChild(n *node, ru *rule, maxNodes int, sp *obs.Span, sigs int) bool {
	if len(ru.head.args) != len(n.label.args) {
		return false
	}
	base := b.fresh(ru.names)
	mark := len(b.trail)
	for i, t := range ru.head.args {
		if !b.unify(shift(t, base), n.label.args[i]) {
			b.undo(mark)
			return false
		}
	}
	var comps []comparison
	if len(ru.comps) > 0 {
		comps = make([]comparison, len(ru.comps))
		for i, c := range ru.comps {
			comps[i] = comparison{op: c.op, l: b.apply(shift(c.l, base)), r: b.apply(shift(c.r, base))}
		}
	}
	// Bindings the head unification imposes on the goal's own variables
	// must flow into the final rewriting (its head and sibling atoms).
	export := carve(&b.binds, len(n.label.args))[:0]
	for i, v := range n.label.args {
		if img := b.apply(v); n.label.firstVar(i) && img != v {
			export = append(export, binding{v, img})
		}
	}
	b.body = b.body[:0]
	for _, g := range ru.body {
		args := carve(&b.terms, len(g.args))
		for i, t := range g.args {
			args[i] = b.apply(shift(t, base))
		}
		b.body = append(b.body, atom{pred: g.pred, args: args})
	}
	b.undo(mark)

	constraint, ok := b.constrain(n, comps)
	if !ok {
		return false
	}
	slot := -1
	if sigs >= 0 {
		for _, ga := range b.body {
			if !b.cat.preds[ga.pred].ground {
				// A subgoal over a never-groundable predicate can neither be
				// productive nor covered by a sibling MCD (see prune.go):
				// the whole rule node is hopeless before construction.
				b.stats.PrunedEmpty++
				return false
			}
		}
		key := b.childSig(n, ru.desc, b.body, comps, export, nil)
		if prod, dup := b.seenSig(sigs, key); dup {
			b.stats.PrunedSubsumed++
			return prod
		}
		slot = b.addSig(key)
	}
	banned := n.banned
	if !ru.fromInclusion {
		banned = b.ban(n.banned, ru.desc)
	}
	rn := b.newNode(ruleNode, n)
	rn.descID, rn.comps, rn.export, rn.constraint, rn.banned = ru.id, comps, export, constraint, banned
	b.stats.RuleNodes++
	rn.children = carve(&b.ptrs, len(b.body))
	for i, ga := range b.body {
		gn := b.newNode(goalNode, rn)
		gn.label, gn.constraint, gn.banned, gn.stored = ga, constraint, banned, b.cat.preds[ga.pred].stored
		rn.children[i] = gn
		b.stats.GoalNodes++
	}
	rs := child(sp, "rule", "desc", ru.id)
	b.expandChildren(rn, maxNodes, rs)
	rs.End()
	if b.err != nil {
		return false
	}
	b.kids = append(b.kids, rn)
	// A rule node is productive when every child is stored, productive, or
	// covered by a sibling's productive inclusion expansion (unc labels).
	prod := ruleNodeProductive(rn)
	if slot >= 0 {
		b.sigs[slot].prod = prod
	}
	return prod
}

// inclusionChild performs one inclusion expansion of goal node n with the
// given MCD; returns productivity. sigs is where n's expansion signatures
// start (-1 when pruning is disabled).
func (b *builder) inclusionChild(n *node, v *view, m mcd, maxNodes int, sp *obs.Span, sigs int) bool {
	constraint, ok := b.constrain(n, m.comps)
	if !ok {
		return false
	}
	slot := -1
	if sigs >= 0 {
		if !b.cat.preds[m.atom.pred].ground {
			// The view's V-predicate never grounds out: the MCD subtree is
			// hopeless before construction.
			b.stats.PrunedEmpty++
			return false
		}
		b.body = append(b.body[:0], m.atom)
		key := b.childSig(n, v.desc, b.body, m.comps, m.export, m.covered)
		if prod, dup := b.seenSig(sigs, key); dup {
			b.stats.PrunedSubsumed++
			return prod
		}
		slot = b.addSig(key)
	}
	banned := b.ban(n.banned, v.desc)
	rn := b.newNode(ruleNode, n)
	rn.descID, rn.comps, rn.export, rn.constraint, rn.banned = v.id, m.comps, m.export, constraint, banned
	b.stats.RuleNodes++
	// unc: the sibling goal nodes covered by the MCD.
	rn.unc = carve(&b.ptrs, len(m.covered))
	for i, ci := range m.covered {
		rn.unc[i] = n.parent.children[ci]
	}
	gn := b.newNode(goalNode, rn)
	gn.label, gn.constraint, gn.banned, gn.stored = m.atom, constraint, banned, b.cat.preds[m.atom.pred].stored
	rn.children = carve(&b.ptrs, 1)
	rn.children[0] = gn
	b.stats.GoalNodes++
	rs := child(sp, "mcd", "view", v.id)
	prod := b.expand(gn, maxNodes, rs)
	rs.End()
	b.kids = append(b.kids, rn)
	if slot >= 0 {
		b.sigs[slot].prod = prod
	}
	return prod
}

// ruleNodeProductive reports whether every child of rn is either productive
// itself or covered by some sibling's productive inclusion expansion.
func ruleNodeProductive(rn *node) bool {
	live := func(g *node) bool { return g.stored || !g.dead }
	for _, child := range rn.children {
		if !live(child) {
			continue
		}
		child.covered = true
		// Inclusion expansions of productive children may cover dead
		// siblings.
		for _, cr := range child.children {
			if len(cr.unc) > 0 && len(cr.children) == 1 && live(cr.children[0]) {
				for _, u := range cr.unc {
					u.covered = true
				}
			}
		}
	}
	ok := true
	for _, child := range rn.children {
		ok = ok && child.covered
		child.covered = false
	}
	return ok
}

// orderChildren pushes a rule node's children onto the order stack in
// expansion order and returns their span there, by the Section 4.3
// priority scheme: children with the fewest applicable descriptions first
// (dead ends surface early, maximizing memo/prune benefit), ties in
// document order.
func (b *builder) orderChildren(children []*node) (start, end int) {
	start = len(b.order)
	b.order = append(b.order, children...)
	end = len(b.order)
	score := func(c *node) int {
		if c.stored {
			return 0
		}
		p := &b.cat.preds[c.label.pred]
		return len(p.rules) + len(p.views)
	}
	slices.SortStableFunc(b.order[start:end], func(x, y *node) int { return cmp.Compare(score(x), score(y)) })
	return start, end
}

// langTerm, langAtom and langComps turn interned symbols back into names,
// at the edges: rewritings out, ExplainTree, and the constraints package.

func (b *builder) langTerm(t term) lang.Term {
	if !t.isVar() {
		id := int(^t)
		if id < len(b.cat.consts) {
			return lang.Const(b.cat.consts[id])
		}
		return lang.Const(b.consts[id-len(b.cat.consts)])
	}
	if int(t) < b.nq {
		return lang.Var(b.names[t])
	}
	for len(b.printed) <= int(t) {
		b.printed = append(b.printed, "")
	}
	if b.printed[t] == "" {
		b.printed[t] = b.names[t] + "#" + strconv.Itoa(int(t))
	}
	return lang.Var(b.printed[t])
}

func (b *builder) predName(p int32) string {
	if p < 0 {
		return b.query.Head.Pred
	}
	return b.cat.preds[p].name
}

func (b *builder) langAtom(a atom) lang.Atom {
	args := make([]lang.Term, len(a.args))
	for i, t := range a.args {
		args[i] = b.langTerm(t)
	}
	return lang.Atom{Pred: b.predName(a.pred), Args: args}
}

func (b *builder) langComps(cs []comparison) []lang.Comparison {
	out := make([]lang.Comparison, len(cs))
	for i, c := range cs {
		out[i] = lang.Comparison{Op: c.op, L: b.langTerm(c.l), R: b.langTerm(c.r)}
	}
	return out
}
