package core

import (
	"fmt"

	"repro/internal/containment"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/ppl"
)

// Reformulator reformulates queries over a PDMS into unions of conjunctive
// queries over stored relations. It is immutable after New and safe for
// concurrent use: New normalizes the descriptions into a catalog and derives
// everything the tree construction looks up (the frozen symbol table,
// expansion indexes, groundable predicates, reach cones, the
// specification's classification), and each call keeps what it mutates in
// a builder of its own: its variable ids and the constants of its query the
// catalog does not know, the substitution and its trail, the memo, the
// tree's arenas, statistics and trace span. Build one per specification
// and share it; the PDMS must not change while its Reformulator is in use.
type Reformulator struct {
	pdms *ppl.PDMS
	cat  *catalog
	opts Options
}

// New builds a Reformulator for the PDMS with the given options.
func New(n *ppl.PDMS, opts Options) (*Reformulator, error) {
	return &Reformulator{pdms: n, cat: newCatalog(n), opts: opts}, nil
}

// Parameterizable reports whether reformulating q commutes with
// substituting its atom constants: q has no comparison, and no description
// reachable from its body predicates mentions a constant or a comparison.
// Then the rule-goal tree only carries q's constants along — it never
// unifies one with anything but a variable or an equal query constant, and
// never compares one — so the rewriting of q with its constants replaced by
// distinct placeholders (equal constants by equal ones) is q's rewriting
// with the placeholders in place of the constants: text, disjunct order,
// Stats and Classification alike. A body predicate the specification does
// not declare makes it false.
func (r *Reformulator) Parameterizable(q lang.CQ) bool {
	if len(q.Comps) > 0 {
		return false
	}
	for _, a := range q.Body {
		p, ok := r.cat.predID[a.Pred]
		if !ok || !r.cat.preds[p].plain {
			return false
		}
	}
	return true
}

// Result is the outcome of a full reformulation.
type Result struct {
	// UCQ is the reformulated query: a union of conjunctive queries over
	// stored relations. Evaluating it over the stored data yields certain
	// answers, but not always all of them: outside the tractable fragment
	// (see Classification) no rewriting can promise that, and within it a
	// recursive definitional mapping needs unfoldings of any depth, which
	// a finite union does not hold.
	UCQ lang.UCQ
	// Stats reports tree-size and extraction metrics.
	Stats Stats
	// Classification is the Theorem 3.1–3.3 complexity classification of
	// the (PDMS, query) pair.
	Classification ppl.Classification
}

// Reformulate builds the rule-goal tree for q, extracts every conjunctive
// rewriting (up to Options.MaxRewritings), and removes redundant disjuncts
// unless Options.KeepRedundant is set.
func (r *Reformulator) Reformulate(q lang.CQ) (Result, error) {
	return r.ReformulateSpan(q, nil)
}

// ReformulateSpan is Reformulate under a trace span: sp, when non-nil,
// receives the tree's counters and one child span per rule-goal tree node
// expanded, nested to mirror the tree.
func (r *Reformulator) ReformulateSpan(q lang.CQ, sp *obs.Span) (Result, error) {
	var res Result
	stats, err := r.stream(q, sp, func(cq lang.CQ) bool {
		res.UCQ.Add(cq)
		return true
	})
	if err != nil {
		return Result{}, err
	}
	// Containment-based minimization is quadratic in the number of
	// disjuncts; beyond this size the union is returned as-is (it is
	// already correct, just possibly redundant — evaluation dedups).
	const redundancyLimit = 512
	if !r.opts.KeepRedundant && res.UCQ.Len() > 1 && res.UCQ.Len() <= redundancyLimit {
		res.UCQ = containment.RemoveRedundant(res.UCQ)
	}
	res.Stats = stats
	res.Classification = r.cat.class.Classify(q)
	if stats.RecursionCuts > 0 {
		res.Classification.Reasons = append(res.Classification.Reasons, fmt.Sprintf(
			"a definitional cycle was unfolded only once per path (recursion cuts: %d), so the union is a sound subset of the certain answers", stats.RecursionCuts))
	}
	return res, nil
}

// Stream builds the rule-goal tree for q and streams conjunctive rewritings
// to yield as they are extracted; yield returning false stops extraction
// early (the paper's "first rewritings quickly" usage). It returns the
// accumulated statistics.
func (r *Reformulator) Stream(q lang.CQ, yield func(lang.CQ) bool) (Stats, error) {
	return r.stream(q, nil, yield)
}

// stream is Stream under an optional trace span.
func (r *Reformulator) stream(q lang.CQ, sp *obs.Span, yield func(lang.CQ) bool) (Stats, error) {
	if err := r.check(q); err != nil {
		return Stats{}, err
	}
	root, b, err := r.build(q, sp)
	if err != nil {
		return Stats{}, err
	}
	limit := r.opts.MaxRewritings
	n := 0
	b.extract(root, func(cq lang.CQ) bool {
		if !yield(cq) {
			return false
		}
		n++
		return limit <= 0 || n < limit
	})
	return b.stats, nil
}

// BuildTree constructs the rule-goal tree only (step 2), without extracting
// rewritings — the Figure 3 measurement.
func (r *Reformulator) BuildTree(q lang.CQ) (Stats, error) {
	if err := r.check(q); err != nil {
		return Stats{}, err
	}
	_, b, err := r.build(q, nil)
	if err != nil {
		return Stats{}, err
	}
	return b.stats, nil
}

// check validates the query against the PDMS schema and that its body does
// not mention synthetic predicates.
func (r *Reformulator) check(q lang.CQ) error {
	if len(q.Body) == 0 {
		return fmt.Errorf("core: empty query body")
	}
	return r.pdms.ValidateQuery(q)
}
