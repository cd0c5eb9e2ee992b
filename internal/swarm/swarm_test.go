package swarm

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/rel"
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

			// Both sides again, every disjunct's answer checked for
			// EvalUnion's precondition: the executor's evalCQ on the swarm
			// side, the engine's on the oracle side.
			checked, err := n.Mediator.QueryVia(spec.Query, sortedDistinctUnion{t, func(q lang.CQ, _ *obs.Span) ([]rel.Tuple, error) {
				return n.Exec.EvalCQ(q)
			}})
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := pdms.Load(spec.OracleSource())
			if err != nil {
				t.Fatal(err)
			}
			oracleChecked, err := oracle.QueryVia(spec.Query, sortedDistinctUnion{t, engine.New(oracle.Data()).EvalCQSpan})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(checked, want) || !reflect.DeepEqual(oracleChecked, want) {
				t.Fatalf("through the checked union: swarm %v, oracle %v, want %v", checked, oracleChecked, want)
			}
		})
	}
}

// sortedDistinctUnion is a pdms.UCQEvaluator running engine.EvalUnion
// over evalCQ, failing t unless every disjunct's answer holds distinct
// tuples in rel.Compare order — the precondition EvalUnion merges on.
type sortedDistinctUnion struct {
	t      *testing.T
	evalCQ func(lang.CQ, *obs.Span) ([]rel.Tuple, error)
}

func (c sortedDistinctUnion) EvalUCQSpan(u lang.UCQ, sp *obs.Span) ([]rel.Tuple, error) {
	return engine.EvalUnion(u, sp, func(q lang.CQ, cs *obs.Span) ([]rel.Tuple, error) {
		rows, err := c.evalCQ(q, cs)
		for i := 1; i < len(rows); i++ {
			if rel.Compare(rows[i-1], rows[i]) >= 0 {
				c.t.Errorf("disjunct %s: answer %v not strictly before %v", q, rows[i-1], rows[i])
				break
			}
		}
		return rows, err
	})
}

// unprunedNodes reformulates query over med's specification with subtree
// pruning off — the reference side of every pruned-vs-unpruned comparison —
// and returns the rule-goal tree's node count.
func unprunedNodes(t *testing.T, med *pdms.Network, query string) int {
	t.Helper()
	q, err := parser.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.New(med.Spec(), core.Options{NoPruneSubsumed: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Reformulate(q)
	if err != nil {
		t.Fatal(err)
	}
	return out.Stats.Nodes()
}

// TestRunCountersOnDeepChain pins what one query through a booted swarm
// must show, on a deep chain and on a 64-peer small world: both pruning
// counters fire (the generator plants duplicates and a decoy by
// construction), the unpruned tree is strictly larger, the query moves real
// wire traffic, and the answers are the oracle's.
func TestRunCountersOnDeepChain(t *testing.T) {
	for _, p := range []Params{
		{Peers: 8, Topology: Chain, Seed: 42},
		{Peers: 64, Topology: SmallWorld, Seed: 10},
	} {
		t.Run(fmt.Sprintf("%s/peers=%d", p.Topology, p.Peers), func(t *testing.T) {
			spec, err := Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			if p.Topology == Chain && spec.Depth != p.Peers-1 {
				t.Fatalf("chain of %d peers has depth %d", p.Peers, spec.Depth)
			}
			n, err := Boot(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			ref, err := n.Mediator.Reformulate(spec.Query)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Stats.PrunedSubsumed == 0 {
				t.Fatalf("replicated mappings but PrunedSubsumed = 0: %+v", ref.Stats)
			}
			if ref.Stats.PrunedEmpty == 0 {
				t.Fatalf("entry decoy planted but PrunedEmpty = 0: %+v", ref.Stats)
			}
			if pruned, unpruned := ref.Stats.Nodes(), unprunedNodes(t, n.Mediator, spec.Query); pruned >= unpruned {
				t.Fatalf("pruned tree not smaller: %d ≥ %d", pruned, unpruned)
			}
			reg := obs.NewRegistry()
			n.Exec.RegisterMetrics(reg)
			before := reg.Snapshot().Counters
			got, err := n.Answers()
			if err != nil {
				t.Fatal(err)
			}
			after := reg.Snapshot().Counters
			if requests := after["wire.requests"] - before["wire.requests"]; ref.Rewriting.Len() == 0 || requests == 0 {
				t.Fatalf("no work measured: %d rewritings, %d requests", ref.Rewriting.Len(), requests)
			}
			want, err := OracleAnswers(spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("swarm answers %v, oracle %v", got, want)
			}
		})
	}
}

// TestPrunedDominatesUnprunedByDepth asserts the pruner's headline claim on
// chains of growing depth and on the chain and small-world swarms of 16, 64
// and 256 peers: from depth 3 on, the pruned build's node count is strictly
// below the unpruned build's — the duplicated near-entry prefix multiplies
// whole subtrees when not cut — and both prune counters fire.
func TestPrunedDominatesUnprunedByDepth(t *testing.T) {
	var ps []Params
	for _, peers := range []int{4, 5, 6, 8, 10} {
		ps = append(ps, Params{Peers: peers, Topology: Chain, Seed: 7})
	}
	for _, tp := range []Topology{Chain, SmallWorld} {
		for _, peers := range []int{16, 64, 256} {
			ps = append(ps, Params{Peers: peers, Topology: tp, Seed: 10})
		}
	}
	for _, p := range ps {
		spec, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		med, err := pdms.Load(spec.Mediator)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := med.Reformulate(spec.Query)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Depth < 3 {
			continue
		}
		at := fmt.Sprintf("%s/%d peers/seed %d (depth %d)", p.Topology, p.Peers, p.Seed, spec.Depth)
		if pruned, unpruned := ref.Stats.Nodes(), unprunedNodes(t, med, spec.Query); pruned >= unpruned {
			t.Fatalf("%s: pruned %d ≥ unpruned %d", at, pruned, unpruned)
		}
		if ref.Stats.PrunedSubsumed == 0 || ref.Stats.PrunedEmpty == 0 {
			t.Fatalf("%s: prune counters silent: %+v", at, ref.Stats)
		}
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

// metricCatalogue is the exact (name, kind) set an executor, a mediator, a
// server and a store.Dir register. cmd/bench and dashboards key on these
// names, so one that vanishes, appears, or changes kind must be a
// deliberate edit here.
var metricCatalogue = map[string]string{
	"core.catalog_builds":       "counter",
	"core.nodes_expanded":       "counter",
	"core.reformulate_seconds":  "histogram",
	"engine.indexes_built":      "counter",
	"engine.plan_cache.hits":    "counter",
	"engine.plan_cache.misses":  "counter",
	"engine.plans_compiled":     "counter",
	"engine.probes":             "counter",
	"engine.scans":              "counter",
	"fragcache.bytes":           "gauge",
	"fragcache.entries":         "gauge",
	"fragcache.evictions":       "counter",
	"fragcache.hits":            "counter",
	"fragcache.invalidations":   "counter",
	"fragcache.misses":          "counter",
	"fragcache.shared":          "counter",
	"pdms.answer_cache.hits":    "counter",
	"pdms.answer_cache.misses":  "counter",
	"pdms.invalidations":        "counter",
	"pdms.query_seconds":        "histogram",
	"pdms.reform_cache.hits":    "counter",
	"pdms.reform_cache.misses":  "counter",
	"server.accept_retries":     "counter",
	"server.bytes_recv":         "counter",
	"server.bytes_sent":         "counter",
	"server.inflight":           "gauge",
	"server.queue_wait_seconds": "histogram",
	"server.queued":             "gauge",
	"server.read_errors":        "counter",
	"server.request_seconds":    "histogram",
	"server.requests":           "counter",
	"server.rows_served":        "counter",
	"server.shed":               "counter",
	"storage.bytes_written":     "counter",
	"storage.recovered_tuples":  "counter",
	"storage.replay_micros":     "gauge",
	"storage.segments":          "counter",
	"storage.truncations":       "counter",
	"wire.bind_batches":         "counter",
	"wire.busy_retries":         "counter",
	"wire.bytes_recv":           "counter",
	"wire.bytes_sent":           "counter",
	"wire.dials":                "counter",
	"wire.max_frame_bytes":      "gauge",
	"wire.pool_waits":           "counter",
	"wire.requests":             "counter",
	"wire.rows_fetched":         "counter",
}

// TestMetricCatalogueMatchesDocs diffs ARCHITECTURE.md's metrics table
// against a live snapshot of every component that registers metrics, both
// ways: each emitted name's prefix has a row, and each backticked example
// in a row is a name some component emits. The snapshot's (name, kind)
// set must also equal metricCatalogue exactly.
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
	if _, err := n.Answers(); err != nil {
		t.Fatal(err)
	}
	dir, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	reg := obs.NewRegistry()
	n.Exec.RegisterMetrics(reg)
	n.Mediator.RegisterMetrics(reg)
	n.Servers[0].RegisterMetrics(reg)
	dir.RegisterMetrics(reg)
	snap := reg.Snapshot()

	emitted := map[string]bool{}
	kinds := map[string]string{}
	for k := range snap.Counters {
		emitted[k], kinds[k] = true, "counter"
	}
	for k := range snap.Gauges {
		emitted[k], kinds[k] = true, "gauge"
	}
	for k := range snap.Histograms {
		emitted[k], kinds[k] = true, "histogram"
	}
	for k, kind := range kinds {
		if want, ok := metricCatalogue[k]; !ok {
			t.Errorf("%s (%s) is emitted but not in metricCatalogue", k, kind)
		} else if kind != want {
			t.Errorf("%s is emitted as a %s, metricCatalogue says %s", k, kind, want)
		}
	}
	for k, want := range metricCatalogue {
		if _, ok := kinds[k]; !ok {
			t.Errorf("metricCatalogue lists %s (%s), which no registered component emits", k, want)
		}
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
