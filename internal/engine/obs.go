package engine

import (
	"fmt"
	"strings"

	"repro/internal/obs"
)

// RegisterMetrics registers the engine's cumulative counters, and its plan
// cache's, as the "engine" snapshot group of reg, so one obs snapshot
// reports them under stable dotted names (engine.probes,
// engine.parallel_scans, engine.plan_cache.hits, …).
func (e *Engine) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterGroup("engine", func(em *obs.Emitter) {
		st := e.Stats()
		em.Counter("probes", st.Probes)
		em.Counter("scans", st.Scans)
		em.Counter("parallel_scans", st.ParallelScans)
		em.Counter("plans_compiled", st.PlansCompiled)
		em.Counter("indexes_built", st.IndexesBuilt)
		pc := e.plans.Stats()
		em.Counter("plan_cache.hits", pc.Hits)
		em.Counter("plan_cache.misses", pc.Misses)
	})
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
