package pdms_test

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/swarm"
	"repro/pdms"
)

// BenchmarkQueryNewConstant reformulates one query shape over the
// mediator specification of a 64-peer small-world swarm with a constant
// never posed before in every iteration, as adhoc_swarm's queries come: each
// call hits the shape's cache entry and substitutes its constant. (It sits
// outside package pdms because package swarm imports pdms.)
func BenchmarkQueryNewConstant(b *testing.B) {
	spec, err := swarm.Generate(swarm.Params{Peers: 64, Topology: swarm.SmallWorld, Seed: 16})
	if err != nil {
		b.Fatal(err)
	}
	net, err := pdms.Load(spec.Mediator)
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	net.RegisterMetrics(reg)
	query := func(i int) string { return fmt.Sprintf("q(y) :- %s(\"v%d\", y)", swarm.PeerRel(1), i) }
	if _, err := net.Reformulate(query(-1)); err != nil {
		b.Fatal(err)
	}
	before := reg.Snapshot().Counters
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		ref, err := net.Reformulate(query(i))
		if err != nil {
			b.Fatal(err)
		}
		if ref.Rewriting.Len() == 0 {
			b.Fatal("empty rewriting")
		}
		i++
	}
	after := reg.Snapshot().Counters
	hits := after["pdms.reform_cache.hits"] - before["pdms.reform_cache.hits"]
	misses := after["pdms.reform_cache.misses"] - before["pdms.reform_cache.misses"]
	b.ReportMetric(float64(hits)/float64(hits+misses), "hit-rate")
}
