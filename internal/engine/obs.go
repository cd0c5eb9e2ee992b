package engine

import (
	"fmt"
	"strings"

	"repro/internal/obs"
)

// RegisterMetrics registers the engine's cumulative counters, and its plan
// cache's, on reg under the engine.* names. engine.probes counts the index
// lookups made: a plan step that reuses its last lookup in the same run
// (its key repeats) makes none, and neither does a repeated key of one
// ProbeByKeyBatchYield call. engine.scans counts full-scan step entries.
func (e *Engine) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("engine.probes", &e.probes)
	reg.RegisterCounter("engine.scans", &e.scans)
	reg.RegisterCounter("engine.plans_compiled", &e.plansCompiled)
	reg.RegisterCounter("engine.indexes_built", &e.indexesBuilt)
	reg.RegisterCounter("engine.plan_cache.hits", &e.plans.Hits)
	reg.RegisterCounter("engine.plan_cache.misses", &e.plans.Misses)
}

// describe summarizes the plan's step order for trace annotations:
// "probe FH.cite[0]; scan FH.doc".
func (p *Plan) describe() string {
	var sb strings.Builder
	for i, s := range p.steps {
		if i > 0 {
			sb.WriteString("; ")
		}
		if len(s.keyCols) > 0 {
			fmt.Fprintf(&sb, "probe %s%v", s.pred, s.keyCols)
		} else {
			fmt.Fprintf(&sb, "scan %s", s.pred)
		}
	}
	return sb.String()
}
