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

// BenchmarkSwarmExtract times step 3 alone: every rewriting extracted from
// trees built once.
func BenchmarkSwarmExtract(b *testing.B) {
	spec, qs := swarmBench(b)
	r, err := core.New(spec, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	extract := make([]func(func(lang.CQ) bool), len(qs))
	for i, q := range qs {
		if extract[i], err = r.Extractor(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		extract[i%len(qs)](func(lang.CQ) bool { return true })
	}
}

// maxAllocsPerNode bounds TestSwarmReformulateAllocs: a full Reformulate on
// the swarm fixture measured 1.6 allocations per tree node, plus 25 %
// headroom. Most of them are redundancy elimination's.
const maxAllocsPerNode = 2.0

// TestSwarmReformulateAllocs pins the cost of a reformulation in
// allocations per rule-goal tree node: tree, extraction, redundancy
// elimination and classification of each swarm fixture query.
func TestSwarmReformulateAllocs(t *testing.T) {
	spec, qs := swarmBench(t)
	r, err := core.New(spec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nodes := 0
	for _, q := range qs {
		st, err := r.BuildTree(q)
		if err != nil {
			t.Fatal(err)
		}
		nodes += st.Nodes()
	}
	i := 0
	allocs := testing.AllocsPerRun(len(qs), func() {
		if _, err := r.Reformulate(qs[i%len(qs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	perNode := allocs * float64(len(qs)) / float64(nodes)
	t.Logf("%.0f allocations per query, %.2f per node", allocs, perNode)
	if perNode > maxAllocsPerNode {
		t.Errorf("%.2f allocations per tree node, bound %.1f", perNode, maxAllocsPerNode)
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
