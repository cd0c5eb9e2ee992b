package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/constraints"
	"repro/internal/lang"
	"repro/internal/minicon"
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
	id   int
	kind nodeKind

	// label is the atom of a goal node.
	label lang.Atom

	// descID is the description that created a rule node (empty for the
	// query's own rule node).
	descID string
	// comps are the comparison predicates contributed by the description
	// instance at this rule node (already instantiated).
	comps []lang.Comparison
	// export carries bindings the expansion forces on the goal's own
	// variables, to be applied to the final rewriting: for inclusion
	// expansions the MCD export; for definitional expansions the bindings
	// the head unification imposes on the goal label (e.g. unifying goal
	// SkilledPerson(p, c) with rule head SkilledPerson(p, "Doctor") binds
	// c to "Doctor").
	export lang.Subst
	// unc, for rule nodes created by an inclusion expansion, lists the
	// sibling goal nodes of the parent that the MCD covers (always
	// including the parent goal itself) — the paper's unc(n) label.
	unc []*node

	// children: for a goal node, its alternative expansions (rule nodes);
	// for a rule node, its subgoals (goal nodes).
	children []*node
	parent   *node

	// constraint is the node's constraint label c(n).
	constraint *constraints.Set

	// banned is the set of descriptions used on the path from the root to
	// this node (shared with the parent when unchanged).
	banned banSet

	// stored marks goal nodes over stored relations (leaves).
	stored bool
	// dead marks goal nodes that cannot contribute any rewriting (no
	// expansion, not stored) — set during construction for pruning.
	dead bool
}

// banSet is an immutable set of descriptions, by their dense catalog index:
// the once-per-path bans of a node, or such a set restricted to a reach cone
// for the unproductive-memo. The builder runs on bitsets; the interface
// exists so the differential tests can run the same builder on a plain map
// and demand identical trees.
type banSet interface {
	has(d int) bool
	// with returns the set extended by d, leaving the receiver untouched.
	with(d int) banSet
	// within returns the members that lie in cone.
	within(cone bitset) banSet
	// subsetOf compares against a set of the receiver's own kind.
	subsetOf(o banSet) bool
}

// Options configures tree construction and extraction.
type Options struct {
	// MaxNodes caps the number of tree nodes; 0 means the default
	// (2,000,000). Construction stops with an error when exceeded.
	MaxNodes int
	// NoPruneUnsat disables dead-end pruning via unsatisfiable constraint
	// labels (Section 4.3); pruning is on by default.
	NoPruneUnsat bool
	// NoMemo disables memoization of unproductive goal expansions
	// (Section 4.3); memoization is on by default.
	NoMemo bool
	// NoPriority disables the priority scheme that expands low-fanout
	// subgoals first to surface dead ends early (Section 4.3); on by
	// default.
	NoPriority bool
	// NoUselessPath disables the Section 4.3 useless-path rule: when a
	// subgoal's only reformulation route is a single inclusion view and
	// every resulting MCD also covers its (sole) sibling, the sibling's
	// own expansions are all redundant and are skipped. On by default.
	NoUselessPath bool
	// NoPruneSubsumed disables the deep-topology subtree pruning (see
	// prune.go): hopeless-predicate pruning (a goal whose predicate can
	// never bottom out in stored relations is marked dead without building
	// its subtree) and duplicate-description pruning (an expansion whose
	// originating description is content-identical to an already-built
	// sibling expansion with the same instantiation is skipped — replicated
	// mappings make these common). Both prunes leave the extracted rewriting
	// set unchanged; on by default.
	NoPruneSubsumed bool
	// NoPropagateUp disables upward constraint propagation (the paper's
	// predicate-move-around remark in Section 4.2): comparisons implied by
	// EVERY expansion of a goal are hoisted into the goal's own label; if
	// the strengthened label contradicts the context, the goal is a dead
	// end even though each child alone looked viable. On by default.
	NoPropagateUp bool
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

// builder constructs the rule-goal tree of one query. It owns all the
// state a reformulation mutates; the catalog it reads is shared.
type builder struct {
	cat   *catalog
	opts  Options
	vs    *lang.VarSupply
	stats Stats
	nid   int
	// memo records, per canonical goal-label pattern, the banned-description
	// sets under which the goal proved unproductive. A goal is skippable
	// when some recorded set is a SUBSET of its own banned set: forbidding
	// strictly more descriptions can only remove expansions, so
	// unproductivity is monotone in the ban set.
	memo map[string][]banSet
	err  error
}

// build constructs the full tree for query q and returns the root. sp, when
// non-nil, receives one child span per rule-goal tree node expanded (goal
// nodes as "goal", their expansions as "rule"/"mcd" children), nested to
// mirror the tree. noBans is the empty ban set the root path starts from.
func (r *Reformulator) build(q lang.CQ, sp *obs.Span, noBans banSet) (*node, *builder, error) {
	b := &builder{
		cat:  r.cat,
		opts: r.opts,
		vs:   lang.NewVarSupply("_x"),
		memo: map[string][]banSet{},
	}
	maxNodes := b.opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = defaultMaxNodes
	}

	root := &node{id: b.nextID(), kind: goalNode, label: q.Head, constraint: constraints.New()}
	b.stats.GoalNodes++
	qr := &node{
		id:         b.nextID(),
		kind:       ruleNode,
		parent:     root,
		comps:      q.Comps,
		constraint: constraints.New(q.Comps...),
		banned:     noBans,
	}
	b.stats.RuleNodes++
	root.children = []*node{qr}
	for _, g := range q.Body {
		gn := &node{
			id:         b.nextID(),
			kind:       goalNode,
			parent:     qr,
			label:      g,
			constraint: qr.constraint,
			banned:     qr.banned,
			stored:     b.cat.isStored(g.Pred),
		}
		qr.children = append(qr.children, gn)
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

// expandChildren expands every goal child of rule node rn in priority
// order, applying the Section 4.3 useless-path rule: after expanding a
// child gn whose only reformulation route is a single inclusion view, if
// every resulting expansion also covers gn's sole sibling, the sibling's
// own expansions are redundant and it is left unexpanded (extraction covers
// it through gn's unc labels).
func (b *builder) expandChildren(rn *node, maxNodes int, sp *obs.Span) {
	skip := map[*node]bool{}
	for _, gn := range b.orderChildren(rn.children) {
		if skip[gn] {
			b.stats.UselessSkipped++
			continue
		}
		b.expand(gn, maxNodes, sp)
		if b.err != nil {
			return
		}
		if !b.opts.NoUselessPath && len(rn.children) == 2 {
			if other := b.uselessSibling(rn, gn); other != nil {
				skip[other] = true
			}
		}
	}
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
	if len(b.cat.rulesByHead[gn.label.Pred]) > 0 {
		return nil // a definitional expansion would not cover the sibling
	}
	if len(b.cat.viewsByBodyPred[gn.label.Pred]) != 1 {
		return nil
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
		covers := false
		for _, u := range cr.unc {
			if u == other {
				covers = true
				break
			}
		}
		if !covers {
			return nil
		}
	}
	return other
}

func (b *builder) nextID() int {
	b.nid++
	return b.nid
}

// contextKey canonicalizes a goal node for the unproductive-memo. A goal's
// expansions depend not only on its own label but on its whole rule-node
// context: its siblings (MCD closure may need to cover them) and the
// required variables (the parent goal's label). The key therefore
// canonicalizes [parent-goal label; self label; sibling labels in order]
// with variables numbered by first occurrence — two goals with equal keys
// have isomorphic expansion problems.
func contextKey(n *node) string {
	var sb strings.Builder
	num := map[string]int{}
	writeAtom := func(a lang.Atom) {
		sb.WriteString(a.Pred)
		for _, t := range a.Args {
			if t.IsConst() {
				sb.WriteString("|=" + t.Name)
				continue
			}
			i, ok := num[t.Name]
			if !ok {
				i = len(num)
				num[t.Name] = i
			}
			sb.WriteString("|?")
			sb.WriteString(strconv.Itoa(i))
		}
		sb.WriteByte(';')
	}
	if n.parent != nil && n.parent.parent != nil {
		writeAtom(n.parent.parent.label)
	}
	sb.WriteByte('@')
	writeAtom(n.label)
	sb.WriteByte('@')
	if n.parent != nil {
		for _, sib := range n.parent.children {
			if sib != n {
				writeAtom(sib.label)
			}
		}
	}
	return sb.String()
}

// memoUnproductive reports whether the memo proves n unproductive: some
// recorded ban set for its label pattern is a subset of n's.
func (b *builder) memoUnproductive(key string, banned banSet) bool {
	for _, s := range b.memo[key] {
		if s.subsetOf(banned) {
			return true
		}
	}
	return false
}

// memoRecord stores an unproductive finding, dropping recorded supersets.
func (b *builder) memoRecord(key string, banned banSet) {
	kept := b.memo[key][:0]
	for _, s := range b.memo[key] {
		if !banned.subsetOf(s) {
			kept = append(kept, s)
		}
	}
	b.memo[key] = append(kept, banned)
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
	ns := sp.Child("goal", obs.Attr{K: "pred", V: n.label.Pred})
	defer ns.End()
	if !b.opts.NoPruneSubsumed && !b.cat.groundableGoal(n.label.Pred) {
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
	var key string
	var restrictedBans banSet
	if !b.opts.NoMemo {
		key = contextKey(n)
		// Only descriptions reachable from this predicate can influence
		// the subtree; restricting the ban set to that cone makes memo
		// entries comparable across unrelated branches.
		restrictedBans = n.banned.within(b.cat.reach[n.label.Pred])
		if b.memoUnproductive(key, restrictedBans) {
			// Known unproductive under a weaker (or equal) ban set: skip
			// building the subtree entirely.
			b.stats.MemoHits++
			n.dead = true
			b.stats.DeadEnds++
			ns.Set("memo", "hit")
			ns.Set("dead", "true")
			return false
		}
	}

	productive := false

	// seen records signatures of already-built expansions of n for
	// duplicate-description pruning (nil when disabled).
	var seen map[string]bool
	if !b.opts.NoPruneSubsumed {
		seen = map[string]bool{}
	}

	// Case 1: definitional expansion (GAV-style).
	for _, ru := range b.cat.rulesByHead[n.label.Pred] {
		if !ru.fromInclusion && n.banned.has(ru.desc) {
			continue
		}
		if b.definitionalChild(n, ru, maxNodes, ns, seen) {
			productive = true
		}
		if b.err != nil {
			return false
		}
	}

	// Case 2: inclusion expansion (LAV-style) via MCDs against the
	// conjunction formed by n and its siblings.
	parent := n.parent
	goals := make([]lang.Atom, len(parent.children))
	selfIdx := -1
	for i, sib := range parent.children {
		goals[i] = sib.label
		if sib == n {
			selfIdx = i
		}
	}
	required := requiredVars(parent)
	for _, v := range b.cat.viewsByBodyPred[n.label.Pred] {
		if n.banned.has(v.desc) {
			continue
		}
		for _, mcd := range minicon.Form(goals, selfIdx, required, v.View, b.vs) {
			if b.inclusionChild(n, v, mcd, maxNodes, ns, seen) {
				productive = true
			}
			if b.err != nil {
				return false
			}
		}
	}

	if productive && !b.opts.NoPropagateUp {
		if !b.propagateUp(n) {
			productive = false
			b.stats.PrunedUnsat++
		}
	}
	if !productive {
		n.dead = true
		b.stats.DeadEnds++
		ns.Set("dead", "true")
		if !b.opts.NoMemo {
			b.memoRecord(key, restrictedBans)
		}
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
	vars := n.label.Vars(nil)
	var meet *constraints.Set
	for _, rn := range n.children {
		if len(rn.comps) == 0 {
			return true // an unconstrained expansion exists: nothing to hoist
		}
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

// requiredVars computes the variable names the context of rule node r still
// needs from any MCD formed over r's children: the variables of r's parent
// goal label (the only channel connecting the local conjunction to the rest
// of the tree) — for the query's rule node, the query head variables.
func requiredVars(r *node) map[string]bool {
	out := map[string]bool{}
	if r.parent != nil {
		for _, v := range r.parent.label.Vars(nil) {
			out[v.Name] = true
		}
	}
	return out
}

// definitionalChild performs one definitional expansion of goal node n with
// rule ru; returns productivity of the new subtree. seen is the goal's
// duplicate-description signature set (nil when pruning is disabled).
func (b *builder) definitionalChild(n *node, ru *rule, maxNodes int, sp *obs.Span, seen map[string]bool) bool {
	fresh, _ := ru.cq.Rename(b.vs)
	sigma, ok := lang.Unify(fresh.Head, n.label, nil)
	if !ok {
		return false
	}
	comps := sigma.ApplyComparisons(fresh.Comps)
	constraint := n.constraint.And(constraints.New(comps...))
	if !b.opts.NoPruneUnsat && len(comps) > 0 && !constraint.Satisfiable() {
		b.stats.PrunedUnsat++
		return false
	}
	banned := n.banned
	if !ru.fromInclusion {
		banned = n.banned.with(ru.desc)
	}
	// Bindings the head unification imposes on the goal's own variables
	// must flow into the final rewriting (its head and sibling atoms).
	export := lang.NewSubst()
	for _, v := range n.label.Vars(nil) {
		if img := sigma.Apply(v); img != v {
			export[v.Name] = img
		}
	}
	body := make([]lang.Atom, len(fresh.Body))
	for i, g := range fresh.Body {
		body[i] = sigma.ApplyAtom(g)
	}
	var sig string
	if seen != nil {
		for _, ga := range body {
			if !b.cat.groundableGoal(ga.Pred) {
				// A subgoal over a never-groundable predicate can neither be
				// productive nor covered by a sibling MCD (see prune.go):
				// the whole rule node is hopeless before construction.
				b.stats.PrunedEmpty++
				return false
			}
		}
		sig = b.childSig(n, ru.desc, body, comps, export, nil)
		if prod, dup := seen[sig]; dup {
			b.stats.PrunedSubsumed++
			return prod
		}
	}
	rn := &node{
		id:         b.nextID(),
		kind:       ruleNode,
		parent:     n,
		descID:     ru.id,
		comps:      comps,
		export:     export,
		constraint: constraint,
		banned:     banned,
	}
	b.stats.RuleNodes++
	for _, ga := range body {
		gn := &node{
			id:         b.nextID(),
			kind:       goalNode,
			parent:     rn,
			label:      ga,
			constraint: constraint,
			banned:     banned,
			stored:     b.cat.isStored(ga.Pred),
		}
		rn.children = append(rn.children, gn)
		b.stats.GoalNodes++
	}
	rs := sp.Child("rule", obs.Attr{K: "desc", V: ru.id})
	b.expandChildren(rn, maxNodes, rs)
	rs.End()
	if b.err != nil {
		return false
	}
	n.children = append(n.children, rn)
	// A rule node is productive when every child is stored, productive, or
	// covered by a sibling's productive inclusion expansion (unc labels).
	prod := ruleNodeProductive(rn)
	if seen != nil {
		seen[sig] = prod
	}
	return prod
}

// inclusionChild performs one inclusion expansion of goal node n with the
// given MCD; returns productivity. seen is the goal's duplicate-description
// signature set (nil when pruning is disabled).
func (b *builder) inclusionChild(n *node, v view, mcd minicon.MCD, maxNodes int, sp *obs.Span, seen map[string]bool) bool {
	comps := mcd.Comps
	constraint := n.constraint.And(constraints.New(comps...))
	if !b.opts.NoPruneUnsat && len(comps) > 0 && !constraint.Satisfiable() {
		b.stats.PrunedUnsat++
		return false
	}
	var sig string
	if seen != nil {
		if !b.cat.groundableGoal(mcd.Atom.Pred) {
			// The view's V-predicate never grounds out: the MCD subtree is
			// hopeless before construction.
			b.stats.PrunedEmpty++
			return false
		}
		sig = b.childSig(n, v.desc, []lang.Atom{mcd.Atom}, comps, mcd.Export, mcd.Covered)
		if prod, dup := seen[sig]; dup {
			b.stats.PrunedSubsumed++
			return prod
		}
	}
	banned := n.banned.with(v.desc)
	rn := &node{
		id:         b.nextID(),
		kind:       ruleNode,
		parent:     n,
		descID:     v.ID,
		comps:      comps,
		export:     mcd.Export,
		constraint: constraint,
		banned:     banned,
	}
	b.stats.RuleNodes++
	// unc: the sibling goal nodes covered by the MCD.
	for _, ci := range mcd.Covered {
		rn.unc = append(rn.unc, n.parent.children[ci])
	}
	gn := &node{
		id:         b.nextID(),
		kind:       goalNode,
		parent:     rn,
		label:      mcd.Atom,
		constraint: constraint,
		banned:     banned,
		stored:     b.cat.isStored(mcd.Atom.Pred),
	}
	rn.children = []*node{gn}
	b.stats.GoalNodes++
	rs := sp.Child("mcd", obs.Attr{K: "view", V: v.ID})
	prod := b.expand(gn, maxNodes, rs)
	rs.End()
	n.children = append(n.children, rn)
	if seen != nil {
		seen[sig] = prod
	}
	return prod
}

// ruleNodeProductive reports whether every child of rn is either productive
// itself or covered by some sibling's productive inclusion expansion.
func ruleNodeProductive(rn *node) bool {
	covered := map[*node]bool{}
	for _, child := range rn.children {
		if child.stored || !child.dead {
			covered[child] = true
			// Inclusion expansions of productive children may cover dead
			// siblings.
			for _, cr := range child.children {
				if len(cr.unc) == 0 {
					continue
				}
				if len(cr.children) == 1 && (cr.children[0].stored || !cr.children[0].dead) {
					for _, u := range cr.unc {
						covered[u] = true
					}
				}
			}
		}
	}
	for _, child := range rn.children {
		if !covered[child] {
			return false
		}
	}
	return true
}

// orderChildren returns the expansion order for a rule node's children:
// with the priority scheme enabled, children with the fewest applicable
// descriptions first (dead ends surface early, maximizing memo/prune
// benefit); otherwise document order.
func (b *builder) orderChildren(children []*node) []*node {
	if b.opts.NoPriority || len(children) < 2 {
		return children
	}
	type scored struct {
		n     *node
		score int
	}
	sc := make([]scored, len(children))
	for i, c := range children {
		s := 0
		if !c.stored {
			s = len(b.cat.rulesByHead[c.label.Pred]) + len(b.cat.viewsByBodyPred[c.label.Pred])
		}
		sc[i] = scored{c, s}
	}
	sort.SliceStable(sc, func(i, j int) bool { return sc[i].score < sc[j].score })
	out := make([]*node, len(children))
	for i, s := range sc {
		out[i] = s.n
	}
	return out
}
