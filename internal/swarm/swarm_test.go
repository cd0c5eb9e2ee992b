package swarm

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/pdms"
)

// corpus is the deep-topology differential corpus: seeded parameter tuples
// covering every topology at reformulation depth ≥ 5 (chain and small
// world; the star is the shallow wide contrast). Quick by construction —
// the whole table boots well under a hundred loopback servers — so it runs
// under -race in CI; any failure replays from its tuple alone.
func corpus(short bool) []Params {
	var ps []Params
	seeds := []int64{1, 2, 3}
	if short {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		ps = append(ps,
			Params{Peers: 8, Topology: Chain, Seed: seed},                           // depth 7
			Params{Peers: 12, Topology: Star, Seed: seed},                           // depth 1, wide
			Params{Peers: 12, Topology: SmallWorld, Seed: seed},                     // deep + diamonds
			Params{Peers: 7, Topology: Chain, QueryLen: 2, Seed: seed},              // join fan-out
			Params{Peers: 13, Topology: SmallWorld, StoreCoverage: 0.5, Seed: seed}, // hopeless-heavy
		)
	}
	return ps
}

// TestSwarmMatchesOracleOnDeepTopologies is the harness' central
// correctness claim: for every corpus tuple, the answers obtained by
// reformulating at a spec-only mediator and executing across N loopback
// peer servers equal the answers of a single-process oracle holding the
// same specification and all the data locally.
func TestSwarmMatchesOracleOnDeepTopologies(t *testing.T) {
	for _, p := range corpus(testing.Short()) {
		p := p
		t.Run(fmt.Sprintf("%s/peers=%d/qlen=%d/seed=%d", p.Topology, p.Peers, p.QueryLen, p.Seed), func(t *testing.T) {
			t.Parallel()
			spec, err := Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			if p.Topology != Star && spec.Depth < 5 {
				t.Fatalf("corpus tuple not deep: depth %d < 5", spec.Depth)
			}
			n, err := Boot(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			got, err := n.Answers()
			if err != nil {
				t.Fatal(err)
			}
			want, err := OracleAnswers(spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("swarm %d answers, oracle %d\n got %v\nwant %v\nspec:\n%s",
					len(got), len(want), got, want, spec.Mediator)
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("answer %d: swarm %v, oracle %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestRunCountersOnDeepChain pins the measurement contract a single Run
// reports on a deep chain: both pruning counters fire (the generator
// plants duplicates and a decoy by construction), the unpruned tree is
// strictly larger, distinct estimates arrive over the wire, and the
// answer count matches the swarm's own Answers path.
func TestRunCountersOnDeepChain(t *testing.T) {
	spec, err := Generate(Params{Peers: 8, Topology: Chain, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	n, err := Boot(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	r, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Depth != 7 || r.Peers != 8 || r.Topology != "chain" {
		t.Fatalf("shape fields wrong: %+v", r)
	}
	if r.PrunedSubsumed == 0 {
		t.Fatalf("replicated mappings but PrunedSubsumed = 0: %+v", r)
	}
	if r.PrunedEmpty == 0 {
		t.Fatalf("entry decoy planted but PrunedEmpty = 0: %+v", r)
	}
	if r.NodesPruned >= r.NodesUnpruned {
		t.Fatalf("pruned tree not smaller: %d ≥ %d", r.NodesPruned, r.NodesUnpruned)
	}
	if r.Rewritings == 0 || r.Requests == 0 {
		t.Fatalf("no work measured: %+v", r)
	}
	if r.DistinctMeta == 0 {
		t.Fatalf("peers shipped no distinct estimates: %+v", r)
	}
	got, err := n.Answers()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != r.Answers {
		t.Fatalf("Run reported %d answers, Answers returned %d", r.Answers, len(got))
	}
}

// TestPrunedDominatesUnprunedByDepth asserts the BENCH_10 headline claim
// on chains of growing depth: from depth 3 on, the pruned build's node
// count is strictly below the unpruned build's, and the gap only widens —
// the duplicated near-entry prefix multiplies whole subtrees when not cut.
func TestPrunedDominatesUnprunedByDepth(t *testing.T) {
	prevGap := 0.0
	for _, peers := range []int{4, 5, 6, 8, 10} {
		spec, err := Generate(Params{Peers: peers, Topology: Chain, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		med, err := pdms.Load(spec.Mediator)
		if err != nil {
			t.Fatal(err)
		}
		unp, err := pdms.LoadWithOptions(spec.Mediator, pdms.Options{DisableSubsumePruning: true})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := med.Reformulate(spec.Query)
		if err != nil {
			t.Fatal(err)
		}
		uref, err := unp.Reformulate(spec.Query)
		if err != nil {
			t.Fatal(err)
		}
		depth := spec.Depth
		if depth >= 3 && ref.Stats.Nodes() >= uref.Stats.Nodes() {
			t.Fatalf("depth %d: pruned %d ≥ unpruned %d", depth, ref.Stats.Nodes(), uref.Stats.Nodes())
		}
		gap := float64(uref.Stats.Nodes()) / float64(ref.Stats.Nodes())
		if depth >= 3 && gap < prevGap {
			t.Logf("depth %d: gap ratio shrank %.2f → %.2f (acceptable, but unusual)", depth, prevGap, gap)
		}
		prevGap = gap
	}
}

// TestParamsValidation pins fill()'s rejections.
func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{Peers: 1},
		{Peers: 4, Replication: -1},
		{Peers: 4, StoreCoverage: 1.5},
		{Peers: 4, FactsPerStore: -2},
		{Peers: 4, QueryLen: -1},
	}
	for _, p := range bad {
		if _, err := Generate(p); err == nil {
			t.Fatalf("Generate(%+v) succeeded, want error", p)
		}
	}
	if _, err := ParseTopology("ring"); err == nil {
		t.Fatal("ParseTopology(ring) succeeded")
	}
	for _, s := range []string{"chain", "star", "smallworld"} {
		tp, err := ParseTopology(s)
		if err != nil {
			t.Fatal(err)
		}
		if tp.String() != s {
			t.Fatalf("ParseTopology(%q).String() = %q", s, tp)
		}
	}
}

// TestMetricsGroupRegisters exercises the obs wiring: the swarm group must
// expose the static shape and count runs.
func TestMetricsGroupRegisters(t *testing.T) {
	spec, err := Generate(Params{Peers: 4, Topology: Star, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	n, err := Boot(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	n.RegisterMetrics(reg)
	snap := reg.Snapshot()
	if snap.Gauges["swarm.peers"] != 4 || snap.Counters["swarm.runs"] != 1 {
		t.Fatalf("swarm metrics missing or wrong: gauges %v counters %v", snap.Gauges, snap.Counters)
	}
}

// TestMetricCatalogueMatchesDocs diffs ARCHITECTURE.md's metrics table
// against a live snapshot of every component that registers metrics, both
// ways: each emitted name's prefix has a row, and each backticked example
// in a row is a name some component emits.
func TestMetricCatalogueMatchesDocs(t *testing.T) {
	doc, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	// Rows look like: | `engine.*` | source | `engine.scans`, ... |
	rows := map[string][]string{} // prefix -> example names
	name := regexp.MustCompile("`([a-z_]+(?:\\.[a-z_]+)+)`")
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.HasSuffix(strings.TrimSpace(cells[1]), ".*`") {
			continue
		}
		prefix := strings.TrimSuffix(strings.Trim(strings.TrimSpace(cells[1]), "`"), ".*")
		rows[prefix] = []string{}
		for _, m := range name.FindAllStringSubmatch(cells[3], -1) {
			if strings.HasPrefix(m[1], prefix+".") {
				rows[prefix] = append(rows[prefix], m[1])
			}
		}
	}
	if len(rows) == 0 {
		t.Fatal("no metrics table found in ARCHITECTURE.md")
	}

	spec, err := Generate(Params{Peers: 4, Topology: Chain, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n, err := Boot(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	dir, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	reg := obs.NewRegistry()
	n.RegisterMetrics(reg) // swarm.* and the executor's wire.*, fragcache.*
	n.Mediator.RegisterMetrics(reg)
	n.Servers[0].RegisterMetrics(reg)
	store.RegisterMetrics(reg, dir)
	snap := reg.Snapshot()

	emitted := map[string]bool{}
	for k := range snap.Counters {
		emitted[k] = true
	}
	for k := range snap.Gauges {
		emitted[k] = true
	}
	for k := range snap.Histograms {
		emitted[k] = true
	}
	for k := range emitted {
		prefix, _, _ := strings.Cut(k, ".")
		if _, ok := rows[prefix]; !ok {
			t.Errorf("%s is emitted but ARCHITECTURE.md's metrics table has no `%s.*` row", k, prefix)
		}
	}
	for prefix, examples := range rows {
		if len(examples) == 0 {
			t.Errorf("the `%s.*` row names no example metric", prefix)
		}
		for _, ex := range examples {
			if !emitted[ex] {
				t.Errorf("ARCHITECTURE.md lists %s, which no registered component emits", ex)
			}
		}
	}
}
