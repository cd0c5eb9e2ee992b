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
// Variables live in a flat slot array instead of substitution maps. A plan
// depends only on the query shape (plus the relations' cardinalities at
// compile time, which affect ordering but never correctness), so plans are
// cached and reused across evaluations.
type Plan struct {
	steps     []planStep
	nslots    int
	maxArity  int      // the widest step's arity, the size of a row's scratch
	slotNames []string // slot -> variable name
	headPred  string
	head      []outPart
	// headBindsAll reports that the head reads every slot: distinct body
	// matches then emit distinct head tuples.
	headBindsAll bool
	// preComps are variable-free comparisons, checked once per run.
	preComps []compiledComp
	// lateComps are comparisons with variables never bound by the body;
	// evaluating them on a complete match is an error (mirrors rel.EvalCQ).
	lateComps []lang.Comparison
}

// outPart emits one head position: from a slot (slot >= 0) or a constant.
type outPart struct {
	slot     int
	constVal string
}

// project writes the head tuple of the match in slots into head.
func (p *Plan) project(head rel.Tuple, slots []string) {
	for i, h := range p.head {
		if h.slot >= 0 {
			head[i] = slots[h.slot]
		} else {
			head[i] = h.constVal
		}
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
	// keyCols — every position holding a constant or a variable bound by an
	// earlier step — assembled from keyParts. With no such position the
	// step is a full scan.
	keyCols  []int
	keyParts []outPart
	// indexKey is keyCols' colsKey, the step's index in its engine's index
	// map; Engine.compile sets it for the probe steps of its plans.
	indexKey string
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

// compiledComp is a comparison with both sides resolved to a slot or const.
type compiledComp struct {
	op   lang.CompOp
	l, r outPart
}

func (c compiledComp) eval(slots []string) bool {
	lv, rv := c.l.constVal, c.r.constVal
	if c.l.slot >= 0 {
		lv = slots[c.l.slot]
	}
	if c.r.slot >= 0 {
		rv = slots[c.r.slot]
	}
	return c.op.EvalConst(lang.Const(lv), lang.Const(rv))
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

// ownStrings returns a deep copy of q whose predicate names, variable
// names and constants each have an allocation of their own.
func ownStrings(q lang.CQ) lang.CQ {
	q = q.Clone()
	own := func(a *lang.Atom) {
		a.Pred = strings.Clone(a.Pred)
		for i := range a.Args {
			a.Args[i].Name = strings.Clone(a.Args[i].Name)
		}
	}
	own(&q.Head)
	for i := range q.Body {
		own(&q.Body[i])
	}
	for i := range q.Comps {
		q.Comps[i].L.Name = strings.Clone(q.Comps[i].L.Name)
		q.Comps[i].R.Name = strings.Clone(q.Comps[i].R.Name)
	}
	return q
}

// compile builds a plan for q over the engine's instance: the package's
// compile, ordered by the relations' cardinalities, the planner's one
// statistic (an absent relation has none), with each probe step's index
// key. Each atom's arity is checked against its relation first, so a query
// that is also unsafe gets the arity error.
func (e *Engine) compile(q lang.CQ) (*Plan, error) {
	e.plansCompiled.Add(1)
	cards := make([]int, len(q.Body))
	for i, a := range q.Body {
		if r := e.data.Relation(a.Pred); r != nil {
			if r.Arity() != a.Arity() {
				return nil, fmt.Errorf("engine: atom %s arity %d, relation has %d", a, a.Arity(), r.Arity())
			}
			cards[i] = r.Len()
		}
	}
	p, err := compile(q, cards)
	if err != nil {
		return nil, err
	}
	for i := range p.steps {
		if st := &p.steps[i]; len(st.keyCols) > 0 {
			st.indexKey = colsKey(st.keyCols)
		}
	}
	return p, nil
}

// compile lowers q to a plan, its body in orderBody's order under cards,
// one cardinality estimate per body position. It is the one lowering of a
// conjunctive query: Engine runs the plan over its instance, BindJoin over
// fetched rows. Atoms are narrow and queries short, so variables are found
// by scanning the slots and the atom rather than through maps.
//
// A step's key columns, key parts and binds each hold at most one entry
// per position of its atom, and the plan binds at most one slot per
// position of its body, so each is carved from one slice per plan sized by
// the body's total arity. Every step's share is its atom's positions,
// capped there: an append never reaches a neighbour's.
func compile(q lang.CQ, cards []int) (*Plan, error) {
	p := &Plan{headPred: q.Head.Pred}
	width := 0 // the body's total arity
	for _, a := range q.Body {
		width += a.Arity()
	}
	p.slotNames = make([]string, 0, width)
	keyCols, keyParts, binds := make([]int, width), make([]outPart, width), make([]posSlot, width)
	off := 0 // where the step's share of keyCols, keyParts and binds starts
	slotOf := func(t lang.Term) int { return slices.Index(p.slotNames, t.Name) }
	// bindStep[s] is the step that binds slot s.
	bindStep := make([]int, 0, width)

	// Lower each atom to a step.
	order := orderBody(q.Body, cards)
	p.steps = make([]planStep, len(order))
	for i, bi := range order {
		a := q.Body[bi]
		st := &p.steps[i]
		st.pred, st.arity, st.atom = a.Pred, a.Arity(), bi
		end := off + st.arity
		st.keyCols, st.keyParts, st.binds = keyCols[off:off:end], keyParts[off:off:end], binds[off:off:end]
		off = end
		bound := len(p.slotNames) // the slots earlier steps bind
		for pos, t := range a.Args {
			if t.IsConst() {
				st.keyCols = append(st.keyCols, pos)
				st.keyParts = append(st.keyParts, outPart{slot: -1, constVal: t.Name})
				continue
			}
			switch s := slotOf(t); {
			case s >= 0 && s < bound:
				st.keyCols = append(st.keyCols, pos)
				st.keyParts = append(st.keyParts, outPart{slot: s})
				continue
			case s >= 0:
				// Bound at an earlier position of this atom: the first.
				st.checkPos = append(st.checkPos, posPos{pos: pos, first: slices.Index(a.Args, t)})
			default:
				st.binds = append(st.binds, posSlot{pos: pos, slot: len(p.slotNames)})
				p.slotNames = append(p.slotNames, t.Name)
				bindStep = append(bindStep, i)
			}
			st.width = pos + 1
		}
		p.maxArity = max(p.maxArity, st.arity)
	}

	// Attach comparisons to the earliest step at which they are ground.
	part := func(t lang.Term) outPart {
		if t.IsConst() {
			return outPart{slot: -1, constVal: t.Name}
		}
		return outPart{slot: slotOf(t)}
	}
	for _, c := range q.Comps {
		cc := compiledComp{op: c.Op, l: part(c.L), r: part(c.R)}
		at := -1 // the step that grounds c; -1 while no variable is seen
		for _, o := range [2]outPart{cc.l, cc.r} {
			if o.slot >= 0 {
				at = max(at, bindStep[o.slot])
			}
		}
		switch {
		case (c.L.IsVar() && cc.l.slot < 0) || (c.R.IsVar() && cc.r.slot < 0):
			p.lateComps = append(p.lateComps, c)
		case at < 0:
			p.preComps = append(p.preComps, cc)
		default:
			p.steps[at].comps = append(p.steps[at].comps, cc)
		}
	}

	// Head emission. A head variable no atom binds makes q unsafe.
	p.head = make([]outPart, len(q.Head.Args))
	for i, t := range q.Head.Args {
		p.head[i] = part(t)
		if t.IsVar() && p.head[i].slot < 0 {
			return nil, fmt.Errorf("engine: unsafe query %s", q)
		}
	}
	p.nslots = len(p.slotNames)
	p.headBindsAll = true
	for s := range p.nslots {
		if !slices.ContainsFunc(p.head, func(o outPart) bool { return o.slot == s }) {
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

// stepMemo is what one run remembers of one plan step: the relation, and a
// probe step's index, resolved on the step's first entry that finds the
// relation, and the step's last probe, its key with the snapshot and
// locations it matched. A step entered again with that key reuses them: a
// constant key is probed once per run, and a join key is probed once per
// run of outer rows that repeat it.
type stepMemo struct {
	r   *rel.Relation // nil until resolved
	idx *index        // nil for a scan step
	// probed reports that key, rows and locs hold the step's last probe.
	probed bool
	key    []byte
	rows   rel.Rows
	locs   []rel.Loc
}

var runCtxPool = sync.Pool{New: func() any { return new(runCtx) }}

// newRunCtx takes a context from the pool and sets it up for one run of p;
// release returns it.
func newRunCtx(e *Engine, p *Plan, yield func([]string) error) *runCtx {
	rc := runCtxPool.Get().(*runCtx)
	rc.e, rc.p, rc.yield = e, p, yield
	if cap(rc.slots) < p.nslots {
		rc.slots = make([]string, p.nslots)
	}
	rc.slots = rc.slots[:p.nslots]
	if cap(rc.row) < p.maxArity {
		rc.row = make([]string, p.maxArity)
	}
	rc.row = rc.row[:p.maxArity]
	if cap(rc.steps) < len(p.steps) {
		rc.steps = make([]stepMemo, len(p.steps))
	}
	rc.steps = rc.steps[:len(p.steps)]
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

// step executes plan step i and everything below it.
func (rc *runCtx) step(i int) error {
	p := rc.p
	if i == len(p.steps) {
		if len(p.lateComps) > 0 {
			return fmt.Errorf("engine: comparison %s not bound by body", p.lateComps[0])
		}
		return rc.yield(rc.slots)
	}
	st, m := &p.steps[i], &rc.steps[i]
	if m.r == nil {
		r := rc.e.data.Relation(st.pred)
		if r == nil {
			return nil
		}
		if r.Arity() != st.arity {
			return fmt.Errorf("engine: atom %s/%d, relation has arity %d", st.pred, st.arity, r.Arity())
		}
		if len(st.keyCols) > 0 {
			m.idx = rc.e.getIndex(r, st.keyCols, st.indexKey)
		}
		m.r = r
	}
	if m.idx == nil {
		// Full scan, in walk order: the relation's rows are distinct.
		rc.e.scans.Add(1)
		rows := m.r.Rows()
		laid, tail := rows.Walk()
		if err := rc.feed(i, st, rows, laid); err != nil {
			return err
		}
		return rc.feed(i, st, rows, tail)
	}
	// Probe path: resolve the key parts, and look the key up unless it is
	// the step's last.
	if cap(rc.vals) < len(st.keyParts) {
		rc.vals = make([]string, len(st.keyParts))
	}
	vals := rc.vals[:len(st.keyParts)]
	for j, part := range st.keyParts {
		if part.slot >= 0 {
			vals[j] = rc.slots[part.slot]
		} else {
			vals[j] = part.constVal
		}
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

// run executes the plan, invoking yield with the slot array for every body
// match. The slot array is reused across yields — callers must copy what
// they keep. Execution is sequential: a scan walks the relation's rows in
// walk order (rel.Rows.Walk), so match order is deterministic for a given
// instance and sequence of probes.
func (e *Engine) run(p *Plan, yield func(slots []string) error) error {
	for _, c := range p.preComps {
		if !c.eval(nil) {
			return nil
		}
	}
	rc := newRunCtx(e, p, yield)
	err := rc.step(0)
	rc.release()
	return err
}
