package main

import (
	"strings"

	"repro/internal/obs"
)

// instruments are the private registries the benchmark reads the program's
// public counters through. The server registries are kept apart because
// every server registers the same "server" and "engine" groups.
type instruments struct {
	med, exec *obs.Registry
	servers   []*obs.Registry
}

// instrument registers the running components' RegisterMetrics groups.
// Call it once set-up is over: a reopen replaces the components.
func (s *sut) instrument() *instruments {
	in := &instruments{med: obs.NewRegistry()}
	s.med.RegisterMetrics(in.med)
	if s.exec != nil {
		in.exec = obs.NewRegistry()
		s.exec.RegisterMetrics(in.exec)
		for _, srv := range s.servers {
			reg := obs.NewRegistry()
			srv.RegisterMetrics(reg)
			in.servers = append(in.servers, reg)
		}
	}
	return in
}

// counts is a flat snapshot of counters and gauges by dotted name. Server
// and server-engine values are summed over the peers.
type counts map[string]float64

func (in *instruments) snapshot() counts {
	out := counts{}
	add := func(reg *obs.Registry, keep func(string) bool) {
		snap := reg.Snapshot()
		for k, v := range snap.Counters {
			if keep(k) {
				out[k] += float64(v)
			}
		}
		for k, v := range snap.Gauges {
			if keep(k) {
				out[k] += float64(v)
			}
		}
	}
	local := in.exec == nil
	// A spec-only mediator's embedded engine never runs; on networked
	// workloads the engine counters are the serving peers'.
	add(in.med, func(k string) bool { return local || !strings.HasPrefix(k, "engine.") })
	if !local {
		add(in.exec, func(string) bool { return true })
		for _, reg := range in.servers {
			add(reg, func(string) bool { return true })
		}
	}
	return out
}

// delta returns after − before for every name in after.
func delta(before, after counts) counts {
	out := counts{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
