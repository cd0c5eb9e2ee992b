package engine

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/lang"
	"repro/internal/rel"
)

// Plan is a compiled evaluation order for one conjunctive query: body atoms
// reordered by estimated selectivity, each lowered to an index probe (when
// any of its positions are bound at that point) or a full scan, with
// comparison predicates attached to the earliest step that grounds them.
// Every operand is a slot of one flat array: the query's atom constants
// (lang.CQ.Params), its comparison constants (the plan's literals), then
// its variables. A plan keeps no variable name and no atom constant: it
// depends only on the query's shape (plus the relations' cardinalities at
// compile time, which affect ordering but never correctness), so queries
// that differ in variable names and atom constants share one cached plan.
type Plan struct {
	steps []planStep
	// lits are the comparison constants, in the slots after the
	// parameters'; vars is the first variable slot.
	lits     []string
	vars     int
	nslots   int
	maxArity int   // the widest step's arity, the size of a row's scratch
	head     []int // the slot of each head position
	// headBindsAll reports that the head reads every variable slot:
	// distinct body matches then emit distinct head tuples.
	headBindsAll bool
	// unsat reports a false variable-free comparison: the query has no
	// answer.
	unsat bool
	// lateComps are comparisons with variables never bound by the body;
	// evaluating them on a complete match is an error (mirrors rel.EvalCQ).
	lateComps []lang.Comparison
}

// seed writes the slots a run of q's plan starts from: q's parameters,
// then the plan's literals.
func (p *Plan) seed(slots []string, q lang.CQ) {
	copy(slots[len(q.Params(slots[:0])):], p.lits)
}

// project writes the head tuple of the match in slots into head.
func (p *Plan) project(head rel.Tuple, slots []string) {
	for i, s := range p.head {
		head[i] = slots[s]
	}
}

// posSlot pairs a tuple position with a slot.
type posSlot struct {
	pos, slot int
}

// posPos pairs two tuple positions that must hold equal values.
type posPos struct {
	pos, first int
}

type planStep struct {
	pred  string
	arity int
	// atom is the step's position in the query body.
	atom int
	// Probe path (len(keyCols) > 0): the index key is the projection onto
	// keyCols — every position holding a parameter or a variable bound by
	// an earlier step — read from the slots keyParts. With no such
	// position the step is a full scan.
	keyCols  []int
	keyParts []int
	// card is the cardinality estimate of the step's relation that the
	// plan was ordered by.
	card int
	// checkPos are repeated variables within the atom — the two tuple
	// positions must agree (checked on the tuple itself, since the slot is
	// not written until the binds below run).
	checkPos []posPos
	// binds writes tuple positions into freshly-bound slots.
	binds []posSlot
	// width is the number of leading values a candidate row decodes: one
	// past the last position checkPos and binds read.
	width int
	// comps become fully ground after this step's binds.
	comps []compiledComp
}

// compiledComp is a comparison between two slots.
type compiledComp struct {
	op   lang.CompOp
	l, r int
}

func (c compiledComp) eval(slots []string) bool {
	return c.op.EvalConst(lang.Const(slots[c.l]), lang.Const(slots[c.r]))
}

// driftFactor is how far a relation's size may drift from the one its
// plan was ordered by: once one exceeds driftFactor times the other, each
// counted as size + 1 so that an empty relation counts too, the plan is
// compiled again.
const driftFactor = 2

// drifted reports whether some step's relation, of size sizes[i] for body
// position i, has drifted past driftFactor from the size it was ordered by.
func (p *Plan) drifted(sizes []int) bool {
	for i := range p.steps {
		st := &p.steps[i]
		if n := sizes[st.atom]; max(st.card, n)+1 > driftFactor*(min(st.card, n)+1) {
			return true
		}
	}
	return false
}

// boundSel is the selectivity of one bound position: binding an argument
// (by a constant or a variable bound by an earlier atom) keeps an eighth of
// a relation.
const boundSel = 1.0 / 8

// orderBody returns an evaluation order for the body atoms under the
// engine's greedy selectivity heuristic: repeatedly take the atom with the
// lowest estimated result size, (cards[i] + 1) · (1/8)^bound, where
// cards[i] estimates atom i's relation and bound counts the atom's
// positions bound by a constant or by a variable of an earlier atom. Ties
// keep body order. Bodies are short and atoms narrow, so the atoms taken
// are scanned rather than kept in a set.
func orderBody(body []lang.Atom, cards []int) []int {
	order := make([]int, 0, len(body))
	for len(order) < len(body) {
		best := -1
		bestCost := 0.0
		for i, a := range body {
			if slices.Contains(order, i) {
				continue
			}
			cost := float64(cards[i]) + 1
			for _, t := range a.Args {
				if t.IsConst() || boundBy(body, order, t) {
					cost *= boundSel
				}
			}
			if best < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		order = append(order, best)
	}
	return order
}

// boundBy reports whether variable v occurs in one of the atoms of body
// that order has taken.
func boundBy(body []lang.Atom, order []int, v lang.Term) bool {
	for _, j := range order {
		if slices.Contains(body[j].Args, v) {
			return true
		}
	}
	return false
}

// compile lowers q to a plan, its body in orderBody's order under cards,
// one cardinality estimate per body position. It is the one lowering of a
// conjunctive query: Engine runs the plan over its instance, BindJoin over
// fetched rows. Atoms are narrow and queries short, so variables, parameters
// and literals are found by scanning short lists rather than through maps.
//
// A step's key columns, key parts and binds each hold at most one entry
// per position of its atom, and the plan binds at most one slot per
// position of its body, so each is carved from one slice per plan sized by
// the body's total arity. Every step's share is its atom's positions,
// capped there: an append never reaches a neighbour's.
//
// A cached plan outlives q, whose strings may be substrings of a whole
// request frame (wire.ReadRequest), so the strings a plan keeps are
// copies.
func compile(q lang.CQ, cards []int) (*Plan, error) {
	params := q.Params(nil)
	p := &Plan{}
	for _, c := range q.Comps {
		for _, t := range [2]lang.Term{c.L, c.R} {
			if t.IsConst() && !slices.Contains(p.lits, t.Name) {
				p.lits = append(p.lits, strings.Clone(t.Name))
			}
		}
	}
	p.vars = len(params) + len(p.lits)
	width := 0 // the body's total arity
	for _, a := range q.Body {
		width += a.Arity()
	}
	names := make([]string, 0, width) // variable slot - p.vars -> name
	keyCols, keyParts, binds := make([]int, width), make([]int, width), make([]posSlot, width)
	off := 0 // where the step's share of keyCols, keyParts and binds starts
	// slotOf returns t's slot, or -1 for a variable no step binds yet; an
	// atom's constant is a parameter, a comparison's a literal.
	slotOf := func(t lang.Term, inAtom bool) int {
		switch {
		case t.IsVar():
			if s := slices.Index(names, t.Name); s >= 0 {
				return p.vars + s
			}
			return -1
		case inAtom:
			return slices.Index(params, t.Name)
		default:
			return len(params) + slices.Index(p.lits, t.Name)
		}
	}
	// bindStep[s - p.vars] is the step that binds variable slot s.
	bindStep := make([]int, 0, width)

	// Lower each atom to a step.
	order := orderBody(q.Body, cards)
	p.steps = make([]planStep, len(order))
	for i, bi := range order {
		a := q.Body[bi]
		st := &p.steps[i]
		st.pred, st.arity, st.atom, st.card = strings.Clone(a.Pred), a.Arity(), bi, cards[bi]
		end := off + st.arity
		st.keyCols, st.keyParts, st.binds = keyCols[off:off:end], keyParts[off:off:end], binds[off:off:end]
		off = end
		bound := p.vars + len(names) // the parameters and the slots earlier steps bind
		for pos, t := range a.Args {
			switch s := slotOf(t, true); {
			case s >= 0 && s < bound:
				st.keyCols = append(st.keyCols, pos)
				st.keyParts = append(st.keyParts, s)
				continue
			case s >= 0:
				// Bound at an earlier position of this atom: the first.
				st.checkPos = append(st.checkPos, posPos{pos: pos, first: slices.Index(a.Args, t)})
			default:
				st.binds = append(st.binds, posSlot{pos: pos, slot: p.vars + len(names)})
				names = append(names, t.Name)
				bindStep = append(bindStep, i)
			}
			st.width = pos + 1
		}
		p.maxArity = max(p.maxArity, st.arity)
	}

	// Attach comparisons to the earliest step at which they are ground.
	for _, c := range q.Comps {
		cc := compiledComp{op: c.Op, l: slotOf(c.L, false), r: slotOf(c.R, false)}
		switch {
		case cc.l < 0 || cc.r < 0:
			p.lateComps = append(p.lateComps, c)
		case cc.l < p.vars && cc.r < p.vars:
			p.unsat = p.unsat || !c.Op.EvalConst(c.L, c.R)
		default:
			at := 0 // the step that grounds c
			for _, s := range [2]int{cc.l, cc.r} {
				if s >= p.vars {
					at = max(at, bindStep[s-p.vars])
				}
			}
			p.steps[at].comps = append(p.steps[at].comps, cc)
		}
	}

	// Head emission. A head variable no atom binds makes q unsafe.
	p.head = make([]int, len(q.Head.Args))
	for i, t := range q.Head.Args {
		if p.head[i] = slotOf(t, true); p.head[i] < 0 {
			return nil, fmt.Errorf("engine: unsafe query %s", q)
		}
	}
	p.nslots = p.vars + len(names)
	p.headBindsAll = true
	for s := p.vars; s < p.nslots; s++ {
		if !slices.Contains(p.head, s) {
			p.headBindsAll = false
			break
		}
	}
	return p, nil
}

// runCtx is the per-evaluation state of one plan execution: the slot
// array, reusable key buffers, the scratch a candidate row decodes into and
// what the run remembers of each step. Contexts are pooled, so the buffers
// carry over from one run to the next; what a run remembers does not.
type runCtx struct {
	e     *Engine
	p     *Plan
	yield func(slots []string) error
	slots []string
	key   []byte
	vals  []string
	row   []string
	steps []stepMemo // by plan step
}

// stepMemo is what one run remembers of one plan step: its relation, a
// probe step's index, resolved on the step's first entry, and the step's
// last probe, its key with the snapshot and locations it matched. A step
// entered again with that key reuses them: a key of parameters alone is
// probed once per run, and a join key once per run of outer rows that
// repeat it.
type stepMemo struct {
	r   *rel.Relation
	idx *index // nil until resolved, and for a scan step
	// probed reports that key, rows and locs hold the step's last probe.
	probed bool
	key    []byte
	rows   rel.Rows
	locs   []rel.Loc
}

var runCtxPool = sync.Pool{New: func() any { return new(runCtx) }}

// newRunCtx takes a context from the pool and sets it up for one run of
// q's plan p over rels, the relation of each body position. release returns
// the context.
func newRunCtx(e *Engine, p *Plan, rels []*rel.Relation, q lang.CQ, yield func([]string) error) *runCtx {
	rc := runCtxPool.Get().(*runCtx)
	rc.e, rc.p, rc.yield = e, p, yield
	if cap(rc.slots) < p.nslots {
		rc.slots = make([]string, p.nslots)
	}
	rc.slots = rc.slots[:p.nslots]
	p.seed(rc.slots, q)
	if cap(rc.row) < p.maxArity {
		rc.row = make([]string, p.maxArity)
	}
	rc.row = rc.row[:p.maxArity]
	if cap(rc.steps) < len(p.steps) {
		rc.steps = make([]stepMemo, len(p.steps))
	}
	rc.steps = rc.steps[:len(p.steps)]
	for i := range rc.steps {
		rc.steps[i].r = rels[p.steps[i].atom]
	}
	return rc
}

// release clears what rc holds of the run, so a pooled context pins no
// rows and its next run starts with no step resolved or probed, and
// returns it to the pool. Each step keeps only its key buffer.
func (rc *runCtx) release() {
	clear(rc.slots)
	clear(rc.vals)
	clear(rc.row)
	for i := range rc.steps {
		m := &rc.steps[i]
		*m = stepMemo{key: m.key[:0]}
	}
	rc.e, rc.p, rc.yield = nil, nil, nil
	runCtxPool.Put(rc)
}

// step executes plan step i and everything below it. A probe step finds
// its index on its first entry in the run.
func (rc *runCtx) step(i int) error {
	p := rc.p
	if i == len(p.steps) {
		if len(p.lateComps) > 0 {
			return fmt.Errorf("engine: comparison %s not bound by body", p.lateComps[0])
		}
		return rc.yield(rc.slots)
	}
	st, m := &p.steps[i], &rc.steps[i]
	if len(st.keyCols) == 0 {
		// Full scan, in walk order: the relation's rows are distinct.
		rc.e.scans.Add(1)
		rows := m.r.Rows()
		laid, tail := rows.Walk()
		if err := rc.feed(i, st, rows, laid); err != nil {
			return err
		}
		return rc.feed(i, st, rows, tail)
	}
	if m.idx == nil {
		m.idx = rc.e.getIndex(m.r, st.keyCols)
	}
	// Probe path: read the key from its slots, and look it up unless it is
	// the step's last.
	if cap(rc.vals) < len(st.keyParts) {
		rc.vals = make([]string, len(st.keyParts))
	}
	vals := rc.vals[:len(st.keyParts)]
	for j, s := range st.keyParts {
		vals[j] = rc.slots[s]
	}
	rc.key = appendProbeKey(rc.key[:0], vals)
	if !m.probed || !bytes.Equal(rc.key, m.key) {
		rc.e.probes.Add(1)
		m.rows, m.locs = m.idx.probe(m.r, rc.key, rc.row)
		m.key, rc.key = rc.key, m.key
		m.probed = true
	}
	return rc.feed(i, st, m.rows, m.locs)
}

// feed applies step i's checks and binds to each candidate row of rows at
// locs and recurses into step i+1 for survivors. A row decodes only the
// values up to st.width; the key columns a probe matched are not among
// those it reads.
func (rc *runCtx) feed(i int, st *planStep, rows rel.Rows, locs []rel.Loc) error {
	row := rc.row[:st.width]
	for _, l := range locs {
		rel.SplitRow(rows.Key(l), row)
		if !st.admit(row, rc.slots) {
			continue
		}
		if err := rc.step(i + 1); err != nil {
			return err
		}
	}
	return nil
}

// admit reports whether row, a candidate for the step's atom, extends the
// match in slots: its repeated variables agree, its binds are written into
// slots, and the comparisons the step grounds hold. The key columns are
// the caller's to check. row holds at least st.width values.
func (st *planStep) admit(row, slots []string) bool {
	for _, c := range st.checkPos {
		if row[c.pos] != row[c.first] {
			return false
		}
	}
	for _, b := range st.binds {
		slots[b.slot] = row[b.pos]
	}
	for _, c := range st.comps {
		if !c.eval(slots) {
			return false
		}
	}
	return true
}

// run executes q's plan p over rels, the relation of each body position
// (nil for an absent one), invoking yield with the slot array for every
// body match. The slot array is reused across yields — callers must copy
// what they keep. Execution is sequential: a scan walks the relation's rows
// in walk order (rel.Rows.Walk), so match order is deterministic for a
// given instance and sequence of probes.
func (e *Engine) run(p *Plan, rels []*rel.Relation, q lang.CQ, yield func(slots []string) error) error {
	if p.unsat || slices.Contains(rels, nil) {
		return nil
	}
	rc := newRunCtx(e, p, rels, q, yield)
	err := rc.step(0)
	rc.release()
	return err
}
