package pdms

import (
	"repro/internal/lang"
	"repro/internal/ppl"
	"repro/internal/rel"
)

// NewFromSpec returns an in-memory network over an already built
// specification, with no data.
func NewFromSpec(spec *ppl.PDMS) *Network { return newNetwork(spec, rel.NewInstance()) }

// CachedEntry returns the rewriting q's reformulation-cache entry holds and
// the number of its parameters (0 when its key keeps q's constants), and
// whether there is an entry. It counts as a lookup.
func (n *Network) CachedEntry(q lang.CQ) (rewriting lang.UCQ, params int, ok bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	r, err := n.reformulatorLocked()
	if err != nil {
		return lang.UCQ{}, 0, false
	}
	shape := r.Parameterizable(q)
	v, ok := n.reforms.Get(reformKey(n.specGen, q, shape))
	if !ok {
		return lang.UCQ{}, 0, false
	}
	e := v.(*reformEntry)
	if e.params != nil {
		params = len(q.Params(nil))
	}
	return e.ref.Rewriting, params, true
}

// ParamName is the placeholder constant of parameter i.
var ParamName = paramName
