package engine

import (
	"fmt"
	"strings"
	"sync/atomic"

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
			}
		}
		for v := range firstPos {
			boundSlots[v] = true
		}
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

// runCtx is the per-evaluation (per-worker, on the parallel path) state of
// one plan execution: the slot array, reusable key and probe-merge buffers,
// and an optional cancellation flag shared with sibling workers.
type runCtx struct {
	e     *Engine
	p     *Plan
	yield func(slots []string) error
	slots []string
	key   []byte
	vals  []string
	// bufs holds one probe-merge scratch buffer per plan step: step i's
	// iteration over a merged probe result finishes before any other probe
	// at depth i runs in the same context, so per-depth reuse is safe.
	bufs [][]rel.Tuple
	// stop, when non-nil, is the shared cancellation flag of a parallel
	// scan; checked per tuple so sibling workers drain quickly after an
	// error or early stop.
	stop *atomic.Bool
}

func newRunCtx(e *Engine, p *Plan, yield func([]string) error) *runCtx {
	return &runCtx{
		e:     e,
		p:     p,
		yield: yield,
		slots: make([]string, p.nslots),
		bufs:  make([][]rel.Tuple, len(p.steps)),
	}
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
		// Full scan, shard by shard (the per-shard logs are distinct and
		// cover the relation).
		rc.e.scans.Add(1)
		for s := 0; s < r.NumShards(); s++ {
			if err := rc.feed(i, st, r.ShardAddedSince(s, 0)); err != nil {
				return err
			}
		}
		return nil
	}
	// Probe path: resolve the key parts, look up the per-shard indexes.
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
	rc.e.probes.Add(1)
	tuples, scratch := rc.e.probe(r, st.keyCols, vals, &rc.key, rc.bufs[i])
	rc.bufs[i] = scratch
	return rc.feed(i, st, tuples)
}

// feed applies step i's checks and binds to each candidate tuple and
// recurses into step i+1 for survivors.
func (rc *runCtx) feed(i int, st *planStep, tuples []rel.Tuple) error {
next:
	for _, tup := range tuples {
		if rc.stop != nil && rc.stop.Load() {
			return errCanceled
		}
		for _, c := range st.checkPos {
			if tup[c.pos] != tup[c.first] {
				continue next
			}
		}
		for _, b := range st.binds {
			rc.slots[b.slot] = tup[b.pos]
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
// they keep. When the plan opens with a full scan of a large sharded
// relation, the scan fans out across shards over a bounded worker pool
// (yields serialized, match order unspecified); otherwise execution is
// sequential and deterministic.
func (e *Engine) run(p *Plan, yield func(slots []string) error) error {
	for _, c := range p.preComps {
		if !c.eval(nil) {
			return nil
		}
	}
	if r, workers := e.parallelScanTarget(p); r != nil {
		return e.runParallel(p, r, workers, yield)
	}
	return newRunCtx(e, p, yield).step(0)
}

// parallelScanTarget reports whether the plan's first step is a full scan
// eligible for shard fan-out, returning the scanned relation and the worker
// count (nil/0 when the sequential path should run: probe first steps,
// unsharded or small relations, single-worker configurations).
func (e *Engine) parallelScanTarget(p *Plan) (*rel.Relation, int) {
	if len(p.steps) == 0 {
		return nil, 0
	}
	st := &p.steps[0]
	if len(st.keyCols) > 0 {
		return nil, 0
	}
	r := e.data.Relation(st.pred)
	if r == nil || r.Arity() != st.arity || r.NumShards() <= 1 {
		return nil, 0
	}
	workers := min(scanWorkers(), r.NumShards())
	// Version (a loop of atomic loads) equals Len under set semantics —
	// the generation counts exactly the distinct inserts — and skips the
	// per-shard mutex round-trips Len would pay on this per-query path.
	if workers <= 1 || r.Version() < uint64(parallelScanMinRows) {
		return nil, 0
	}
	return r, workers
}

// runParallel executes the plan with its opening scan fanned out across
// r's shards: each worker owns a private runCtx (slots, buffers) and
// drains whole shards, funneling matches through the fan-out's serialized
// yield. The first error (or ErrStop) recorded wins and flips the shared
// stop flag, which every worker polls per tuple; run's callers apply the
// usual ErrStop mapping, exactly as on the sequential path.
func (e *Engine) runParallel(p *Plan, r *rel.Relation, workers int, yield func(slots []string) error) error {
	e.scans.Add(1)
	e.parallelScans.Add(1)
	f := &fanOut{}
	syield := func(slots []string) error {
		f.yieldMu.Lock()
		defer f.yieldMu.Unlock()
		if f.stop.Load() {
			return errCanceled
		}
		return yield(slots)
	}
	return f.dispatch(workers, r.NumShards(), func(queue <-chan int) {
		rc := newRunCtx(e, p, syield)
		rc.stop = &f.stop
		st := &p.steps[0]
		for s := range queue {
			if f.stop.Load() {
				continue
			}
			err := rc.feed(0, st, r.ShardAddedSince(s, 0))
			if err != nil && err != errCanceled {
				f.fail(err)
			}
		}
	})
}
