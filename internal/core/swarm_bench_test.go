package core_test

import (
	"fmt"
	"testing"

	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/ppl"
	"repro/internal/swarm"
)

// swarmBench is cmd/bench's adhoc_swarm mediator: the 128-peer small-world
// graph of topology seed 16, queried at peers P24..P48.
func swarmBench(tb testing.TB) (*ppl.PDMS, []lang.CQ) {
	tb.Helper()
	spec, err := swarm.Generate(swarm.Params{
		Peers: 128, Topology: swarm.SmallWorld, Replication: 2, DupDepth: 3, Shortcuts: 3,
		StoreCoverage: 0.75, FactsPerStore: 1, DomainSize: 24, Seed: 16,
	})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := parser.Parse(spec.Mediator)
	if err != nil {
		tb.Fatal(err)
	}
	var qs []lang.CQ
	for peer := 24; peer < 49; peer++ {
		q, err := parser.ParseQuery(fmt.Sprintf("q(y) :- %s(%q, y)", swarm.PeerRel(peer), "v3"))
		if err != nil {
			tb.Fatal(err)
		}
		qs = append(qs, q)
	}
	return res.PDMS, qs
}

// BenchmarkSwarmReformulate times the per-query work of a mediator that
// shares one Reformulator per spec generation: tree, extraction, redundancy
// elimination and classification.
func BenchmarkSwarmReformulate(b *testing.B) {
	spec, qs := swarmBench(b)
	r, err := core.New(spec, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Reformulate(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwarmBuildTree times step 2 alone.
func BenchmarkSwarmBuildTree(b *testing.B) {
	spec, qs := swarmBench(b)
	r, err := core.New(spec, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.BuildTree(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwarmCatalog times core.New: what the mediator pays once per
// spec generation.
func BenchmarkSwarmCatalog(b *testing.B) {
	spec, _ := swarmBench(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(spec, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwarmRemoveRedundant times redundancy elimination on the
// unminimized rewriting sets.
func BenchmarkSwarmRemoveRedundant(b *testing.B) {
	spec, qs := swarmBench(b)
	r, err := core.New(spec, core.Options{KeepRedundant: true})
	if err != nil {
		b.Fatal(err)
	}
	us := make([]lang.UCQ, len(qs))
	for i, q := range qs {
		res, err := r.Reformulate(q)
		if err != nil {
			b.Fatal(err)
		}
		us[i] = res.UCQ
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		containment.RemoveRedundant(us[i%len(us)])
	}
}
