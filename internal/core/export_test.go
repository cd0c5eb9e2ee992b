package core

import "repro/internal/lang"

// Extractor builds q's rule-goal tree once and returns a function that
// extracts every rewriting from it again, so step 3 can be timed alone.
func (r *Reformulator) Extractor(q lang.CQ) (func(yield func(lang.CQ) bool), error) {
	if err := r.check(q); err != nil {
		return nil, err
	}
	root, b, err := r.build(q, nil)
	if err != nil {
		return nil, err
	}
	return func(yield func(lang.CQ) bool) { b.extract(root, yield) }, nil
}
