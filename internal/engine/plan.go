package engine

import (
	"fmt"
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
	// Probe path (len(keyCols) > 0): the index key is the projection onto
	// keyCols — every position holding a constant or a variable bound by an
	// earlier step — assembled from keyParts. With no such position the
	// step is a full scan.
	keyCols  []int
	keyParts []outPart
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

// OrderBody returns an evaluation order for the body atoms under the
// engine's greedy selectivity heuristic: repeatedly take the atom with the
// lowest estimated result size, (card(pred) + 1) · (1/8)^bound, where bound
// counts the atom's positions bound by a constant or by a variable of an
// earlier atom. Ties keep body order.
func OrderBody(body []lang.Atom, card func(pred string) int) []int {
	bound := map[string]bool{}
	var order []int
	taken := make([]bool, len(body))
	for len(order) < len(body) {
		best := -1
		bestCost := 0.0
		for i, a := range body {
			if taken[i] {
				continue
			}
			cost := float64(card(a.Pred)) + 1
			for _, t := range a.Args {
				if t.IsConst() || bound[t.Name] {
					cost *= boundSel
				}
			}
			if best < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		order = append(order, best)
		taken[best] = true
		for _, t := range body[best].Args {
			if t.IsVar() {
				bound[t.Name] = true
			}
		}
	}
	return order
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

// compile builds a plan for q.
func (e *Engine) compile(q lang.CQ) (*Plan, error) {
	e.plansCompiled.Add(1)
	if !q.IsSafe() {
		return nil, fmt.Errorf("engine: unsafe query %s", q)
	}
	for _, a := range q.Body {
		if r := e.data.Relation(a.Pred); r != nil && r.Arity() != a.Arity() {
			return nil, fmt.Errorf("engine: atom %s arity %d, relation has %d", a, a.Arity(), r.Arity())
		}
	}

	p := &Plan{headPred: q.Head.Pred}
	slotOf := map[string]int{}
	getSlot := func(name string) int {
		if s, ok := slotOf[name]; ok {
			return s
		}
		s := len(p.slotNames)
		slotOf[name] = s
		p.slotNames = append(p.slotNames, name)
		return s
	}

	// Lower each atom to a step.
	boundSlots := map[string]bool{} // vars bound by *earlier* steps
	for _, bi := range OrderBody(q.Body, e.card) {
		a := q.Body[bi]
		st := planStep{pred: a.Pred, arity: a.Arity()}
		firstPos := map[string]int{} // var -> position of first in-step occurrence
		for pos, t := range a.Args {
			switch {
			case t.IsConst():
				st.keyCols = append(st.keyCols, pos)
				st.keyParts = append(st.keyParts, outPart{slot: -1, constVal: t.Name})
			case boundSlots[t.Name]:
				st.keyCols = append(st.keyCols, pos)
				st.keyParts = append(st.keyParts, outPart{slot: getSlot(t.Name)})
			default:
				if fp, ok := firstPos[t.Name]; ok {
					st.checkPos = append(st.checkPos, posPos{pos: pos, first: fp})
				} else {
					firstPos[t.Name] = pos
					st.binds = append(st.binds, posSlot{pos: pos, slot: getSlot(t.Name)})
				}
				st.width = pos + 1
			}
		}
		for v := range firstPos {
			boundSlots[v] = true
		}
		p.maxArity = max(p.maxArity, st.arity)
		p.steps = append(p.steps, st)
	}

	// Attach comparisons to the earliest point at which they are ground.
	for _, c := range q.Comps {
		vars := c.Vars(nil)
		if len(vars) == 0 {
			p.preComps = append(p.preComps, compileComp(c, slotOf))
			continue
		}
		attached := false
		seen := map[string]bool{}
		for i := range p.steps {
			for _, b := range p.steps[i].binds {
				seen[p.slotNames[b.slot]] = true
			}
			ok := true
			for _, v := range vars {
				if !seen[v.Name] {
					ok = false
					break
				}
			}
			if ok {
				cc := compileComp(c, slotOf)
				p.steps[i].comps = append(p.steps[i].comps, cc)
				attached = true
				break
			}
		}
		if !attached {
			p.lateComps = append(p.lateComps, c)
		}
	}

	// Head emission. Safety guarantees every head variable is bound.
	p.head = make([]outPart, len(q.Head.Args))
	headSlots := map[int]bool{}
	for i, t := range q.Head.Args {
		if t.IsConst() {
			p.head[i] = outPart{slot: -1, constVal: t.Name}
		} else {
			s, ok := slotOf[t.Name]
			if !ok {
				return nil, fmt.Errorf("engine: unbound head variable %s in %s", t, q)
			}
			p.head[i] = outPart{slot: s}
			headSlots[s] = true
		}
	}
	p.nslots = len(p.slotNames)
	p.headBindsAll = len(headSlots) == p.nslots
	return p, nil
}

func compileComp(c lang.Comparison, slotOf map[string]int) compiledComp {
	part := func(t lang.Term) outPart {
		if t.IsConst() {
			return outPart{slot: -1, constVal: t.Name}
		}
		return outPart{slot: slotOf[t.Name]}
	}
	return compiledComp{op: c.Op, l: part(c.L), r: part(c.R)}
}

// runCtx is the per-evaluation state of one plan execution: the slot
// array, reusable key buffers and the scratch a candidate row decodes
// into. Contexts are pooled, so the buffers carry over from one run to the
// next.
type runCtx struct {
	e     *Engine
	p     *Plan
	yield func(slots []string) error
	slots []string
	key   []byte
	vals  []string
	row   []string
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
	return rc
}

// release clears what rc holds of the run, so a pooled context pins no
// rows, and returns it to the pool.
func (rc *runCtx) release() {
	clear(rc.slots)
	clear(rc.vals)
	clear(rc.row)
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
	st := &p.steps[i]
	r := rc.e.data.Relation(st.pred)
	if r == nil {
		return nil
	}
	if r.Arity() != st.arity {
		return fmt.Errorf("engine: atom %s/%d, relation has arity %d", st.pred, st.arity, r.Arity())
	}
	if len(st.keyCols) == 0 {
		// Full scan, in walk order: the relation's rows are distinct.
		rc.e.scans.Add(1)
		rows := r.Rows()
		laid, tail := rows.Walk()
		if err := rc.feed(i, st, rows, laid); err != nil {
			return err
		}
		return rc.feed(i, st, rows, tail)
	}
	// Probe path: resolve the key parts, look up the index.
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
	rc.e.probes.Add(1)
	rows, locs := rc.e.probe(r, st.keyCols, rc.key, rc.row)
	return rc.feed(i, st, rows, locs)
}

// feed applies step i's checks and binds to each candidate row of rows at
// locs and recurses into step i+1 for survivors. A row decodes only the
// values up to st.width; the key columns a probe matched are not among
// those it reads.
func (rc *runCtx) feed(i int, st *planStep, rows rel.Rows, locs []rel.Loc) error {
	row := rc.row[:st.width]
next:
	for _, l := range locs {
		rel.SplitRow(rows.Key(l), row)
		for _, c := range st.checkPos {
			if row[c.pos] != row[c.first] {
				continue next
			}
		}
		for _, b := range st.binds {
			rc.slots[b.slot] = row[b.pos]
		}
		for _, c := range st.comps {
			if !c.eval(rc.slots) {
				continue next
			}
		}
		if err := rc.step(i + 1); err != nil {
			return err
		}
	}
	return nil
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
