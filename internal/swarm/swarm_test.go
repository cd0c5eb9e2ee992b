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
	"repro/internal/ppl"
	"repro/internal/rel"
	"repro/internal/store"
	"repro/pdms"
)

// corpus is the deep-topology differential corpus: seeded parameter tuples
// covering every topology, chain and small world at reformulation depth ≥ 5
// (the star is the shallow wide contrast), and small strata specs whose
// definitional mappings run through the distributed executor. Quick by
// construction — the whole table boots well under a hundred loopback
// servers — so it runs under -race in CI; any failure replays from its
// tuple alone.
func corpus(short bool) []Params {
	// Strata seeds are picked where the spec is PTIME, so the chase judges
	// it, and where the answers need the definitional mappings: without
	// its define statements each answers 24 → 14, 16 → 0, 40 → 0 and 7 → 3.
	ps := []Params{
		{Peers: 6, Topology: Strata, Diameter: 3, DefRatio: 0.25, Seed: 33},
		{Peers: 8, Topology: Strata, Diameter: 2, DefRatio: 0.5, Seed: 5},
		{Peers: 10, Topology: Strata, Diameter: 3, DefRatio: 0.25, Seed: 12},
		{Peers: 6, Topology: Strata, Diameter: 3, DefRatio: 0.5, Seed: 12},
	}
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
// same specification and all the data locally, and the chase's certain
// answers over that oracle. The oracle runs the same reformulation, so
// only the chase sees a rewriting the tree misses; every tuple must be
// PTIME, where the chase is the exact judge, so a tuple outside it fails
// here rather than escaping the judge.
func TestSwarmMatchesOracleOnDeepTopologies(t *testing.T) {
	for _, p := range corpus(testing.Short()) {
		p := p
		t.Run(fmt.Sprintf("%s/peers=%d/qlen=%d/seed=%d", p.Topology, p.Peers, p.QueryLen, p.Seed), func(t *testing.T) {
			t.Parallel()
			spec, err := Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			if (p.Topology == Chain || p.Topology == SmallWorld) && spec.Depth < 5 {
				t.Fatalf("corpus tuple not deep: depth %d < 5", spec.Depth)
			}
			if p.Topology == Strata && !strings.Contains(spec.Mediator, "define ") {
				t.Fatalf("strata tuple has no definitional mapping:\n%s", spec.Mediator)
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
			// EvalUnion's precondition: the executor's, each disjunct
			// posed alone through EvalUCQ, at its width on the swarm side,
			// the engine's on the caller's goroutine on the oracle side.
			checked, err := n.Mediator.QueryVia(spec.Query, sortedDistinctUnion{t, engine.MaxUnionFanout, func(q lang.CQ, _ *obs.Span) ([]rel.Tuple, error) {
				return n.Exec.EvalUCQ(lang.UCQ{Disjuncts: []lang.CQ{q}})
			}})
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := pdms.Load(spec.OracleSource())
			if err != nil {
				t.Fatal(err)
			}
			oracleChecked, err := oracle.QueryVia(spec.Query, sortedDistinctUnion{t, 1, engine.New(oracle.Data()).EvalCQSpan})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(checked, want) || !reflect.DeepEqual(oracleChecked, want) {
				t.Fatalf("through the checked union: swarm %v, oracle %v, want %v", checked, oracleChecked, want)
			}

			if c, err := oracle.Classify(spec.Query); err != nil || c.Class != ppl.PTime {
				t.Fatalf("corpus tuple classified %v (%v); the chase judges PTIME tuples only", c, err)
			}
			certain, err := oracle.CertainAnswers(spec.Query)
			if err != nil {
				t.Fatal(err)
			}
			if certain = rel.SortDistinct(certain); !reflect.DeepEqual(got, certain) {
				t.Fatalf("swarm %d answers, chase %d\n got %v\nwant %v\nspec:\n%s", len(got), len(certain), got, certain, spec.Mediator)
			}
		})
	}
}

// sortedDistinctUnion is a pdms.UCQEvaluator running engine.EvalUnion
// over evalCQ at width goroutines, failing t unless every disjunct's
// answer holds distinct tuples in rel.Compare order — the precondition
// EvalUnion merges on.
type sortedDistinctUnion struct {
	t      *testing.T
	width  int
	evalCQ func(lang.CQ, *obs.Span) ([]rel.Tuple, error)
}

func (c sortedDistinctUnion) EvalUCQSpan(u lang.UCQ, sp *obs.Span) ([]rel.Tuple, error) {
	return engine.EvalUnion(u, sp, c.width, func(q lang.CQ, cs *obs.Span) ([]rel.Tuple, error) {
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
}

// TestStrataValidation pins the Section 5 model's rejections: too few
// peers, no diameter, a diameter above the peer count, and a definitional
// share outside [0, 1].
func TestStrataValidation(t *testing.T) {
	bad := []Params{
		{Peers: 1, Topology: Strata, Diameter: 1},
		{Peers: 4, Topology: Strata},
		{Peers: 4, Topology: Strata, Diameter: 9},
		{Peers: 4, Topology: Strata, Diameter: 2, DefRatio: 1.5},
		{Peers: 4, Topology: Strata, Diameter: 2, DefRatio: -0.5},
	}
	for _, p := range bad {
		if _, err := Generate(p); err == nil {
			t.Fatalf("Generate(%+v) succeeded, want error", p)
		}
	}
}

// TestGenerateDeterministic: the same Params give the same Spec, field for
// field.
func TestGenerateDeterministic(t *testing.T) {
	for _, p := range []Params{
		{Peers: 12, Topology: SmallWorld, Seed: 7},
		{Peers: 12, Topology: Strata, Diameter: 3, DefRatio: 0.25, Seed: 7},
	} {
		a, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%+v: two specs differ:\n%s\n%s", p, a.Mediator, b.Mediator)
		}
	}
}

// strataTree parses spec and returns a default Reformulator over it, the
// parsed specification and the query.
func strataTree(t *testing.T, spec *Spec) (*core.Reformulator, *ppl.PDMS, lang.CQ) {
	t.Helper()
	res, err := parser.Parse(spec.Mediator)
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery(spec.Query)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.New(res.PDMS, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r, res.PDMS, q
}

// strataCases are the Section 5 specs the strata tests below inspect.
var strataCases = []Params{
	{Peers: 96, Topology: Strata, Diameter: 4, DefRatio: 0.25, Seed: 3},
	{Peers: 24, Topology: Strata, Diameter: 4, DefRatio: 0.5, Seed: 11},
	{Peers: 24, Topology: Strata, Diameter: 4, DefRatio: 0, Seed: 11},
	{Peers: 6, Topology: Strata, Diameter: 2, FactsPerStore: 5, Seed: 2},
	{Peers: 13, Topology: Strata, Diameter: 3, DefRatio: 0.25, StoreCoverage: 0.5, Replication: 3, Seed: 1},
}

// TestStrataShape pins what the Section 5 model builds: Diameter strata of
// near-equal size, top first; Replication mappings per lower-stratum
// relation, a DefRatio share of them definitional; one storage description
// per stored peer; and a query over the top stratum.
func TestStrataShape(t *testing.T) {
	for _, p := range strataCases {
		spec, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		p := spec.Params
		at := fmt.Sprintf("%+v", p)
		_, n, q := strataTree(t, spec)
		sizes := make([]int, p.Diameter)
		for _, d := range spec.Depths {
			sizes[d]++
		}
		for d := 1; d < p.Diameter; d++ {
			if sizes[d] > sizes[d-1] || sizes[0]-sizes[d] > 1 {
				t.Fatalf("%s: strata sizes %v", at, sizes)
			}
		}
		if spec.Depth != p.Diameter-1 {
			t.Fatalf("%s: depth %d", at, spec.Depth)
		}
		st := n.Stats()
		mappings := p.Replication * (p.Peers - sizes[0])
		if st.Definitional+st.Inclusions != mappings {
			t.Fatalf("%s: mappings %d+%d, want %d", at, st.Definitional, st.Inclusions, mappings)
		}
		if ratio := float64(st.Definitional) / float64(mappings); p.DefRatio == 0 && ratio != 0 ||
			mappings >= 100 && (ratio < p.DefRatio-0.15 || ratio > p.DefRatio+0.15) {
			t.Fatalf("%s: definitional ratio %v", at, ratio)
		}
		stores := 0
		for _, stored := range spec.Stored {
			if stored {
				stores++
			}
		}
		if stores == 0 || st.StorageDescrs != stores {
			t.Fatalf("%s: %d storage descriptions for %d stored peers", at, st.StorageDescrs, stores)
		}
		for _, a := range q.Body {
			var i int
			if _, err := fmt.Sscanf(a.Pred, "P%d:R", &i); err != nil || spec.Depths[i] != 0 {
				t.Fatalf("%s: query atom %v not over the top stratum", at, a)
			}
		}
		if len(q.Body) != p.QueryLen {
			t.Fatalf("%s: query %s", at, spec.Query)
		}
		if err := n.ValidateQuery(q); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStrataAcyclicAndClassified: strata only feed adjacent levels, so a
// Section 5 specification is always acyclic; with pure inclusions it is
// moreover PTIME, and it is never undecidable (a definitional head on an
// inclusion's right-hand side is co-NP).
func TestStrataAcyclicAndClassified(t *testing.T) {
	for _, p := range strataCases {
		spec, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		p := spec.Params
		at := fmt.Sprintf("%+v", p)
		_, n, q := strataTree(t, spec)
		if ok, cyc := n.AcyclicInclusions(); !ok {
			t.Fatalf("%s: cyclic: %v", at, cyc)
		}
		if cl := n.Classify(q); cl.Class == ppl.Undecidable || p.DefRatio == 0 && cl.Class != ppl.PTime {
			t.Fatalf("%s: classified %v", at, cl)
		}
	}
}

// TestStrataFactsPopulated: storage and FactsPerStore facts sit at the
// covered bottom peers and nowhere else, and some peer is stored.
func TestStrataFactsPopulated(t *testing.T) {
	for _, p := range strataCases {
		spec, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		p := spec.Params
		at := fmt.Sprintf("%+v", p)
		stores := 0
		for i, stored := range spec.Stored {
			bottom := spec.Depths[i] == p.Diameter-1
			if stored && !bottom || !stored && bottom && p.StoreCoverage == 1 || spec.Decoy[i] {
				t.Fatalf("%s: peer %d (stratum %d) stored %v, decoy %v", at, i, spec.Depths[i], stored, spec.Decoy[i])
			}
			want := 0
			if stored {
				want = p.FactsPerStore
				stores++
			}
			if len(spec.Facts[i]) != want {
				t.Fatalf("%s: peer %d holds %d facts, want %d", at, i, len(spec.Facts[i]), want)
			}
		}
		if stores == 0 {
			t.Fatalf("%s: no stored peer", at)
		}
	}
}

// TestStrataEndToEndReformulation boots a Section 5 spec with definitional
// mappings across loopback peers: the rule-goal tree is not empty, and the
// distributed answers equal the single-process oracle's.
func TestStrataEndToEndReformulation(t *testing.T) {
	spec, err := Generate(Params{Peers: 12, Topology: Strata, Diameter: 3, DefRatio: 0.3, Seed: 5, FactsPerStore: 4})
	if err != nil {
		t.Fatal(err)
	}
	r, _, q := strataTree(t, spec)
	out, err := r.Reformulate(q)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Nodes() == 0 {
		t.Fatal("no tree built")
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
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("swarm %v, oracle %v\nspec:\n%s", got, want, spec.Mediator)
	}
}

// TestStrataTreeGrowsWithDiameter is Figure 3's headline shape on one small
// seed: the tree never shrinks sharply as the diameter grows.
func TestStrataTreeGrowsWithDiameter(t *testing.T) {
	prev := 0
	for _, d := range []int{1, 2, 3, 4} {
		spec, err := Generate(Params{Peers: 24, Topology: Strata, Diameter: d, DefRatio: 0.1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		r, _, q := strataTree(t, spec)
		st, err := r.BuildTree(q)
		if err != nil {
			t.Fatal(err)
		}
		if d > 1 && st.Nodes() <= prev/4 {
			t.Fatalf("tree shrank sharply at diameter %d: %d vs %d", d, st.Nodes(), prev)
		}
		prev = st.Nodes()
	}
}

// fig34Seeds are the generator seeds each Figure 3 and 4 point sums over.
const fig34Seeds = 3

// TestFigure3Shape asserts the shape of the paper's Figure 3 — rule-goal
// tree size against diameter, one series per share of definitional
// mappings — on 96-peer strata specs, in node counts, never times. On every
// series the tree grows strictly with diameter over 1..6, and diameter 6 is
// at least ten times diameter 2. The series are not ordered by %dd (at
// diameter 3, 10 % makes 110.3 nodes on average and 25 % 94.0), so nothing
// is asserted across them. The 0 % series reads 12, 41.3, 74.7, 158.7,
// 184.0 and 824.0 nodes.
func TestFigure3Shape(t *testing.T) {
	for _, dd := range []float64{0, 0.10, 0.25, 0.50} {
		var nodes []int // summed over the seeds, by diameter - 1
		for d := 1; d <= 6; d++ {
			sum := 0
			for seed := int64(0); seed < fig34Seeds; seed++ {
				spec, err := Generate(Params{Peers: 96, Topology: Strata, Diameter: d, DefRatio: dd, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				r, _, q := strataTree(t, spec)
				st, err := r.BuildTree(q)
				if err != nil {
					t.Fatal(err)
				}
				sum += st.Nodes()
			}
			nodes = append(nodes, sum)
		}
		for d := 2; d <= 6; d++ {
			if nodes[d-1] <= nodes[d-2] {
				t.Errorf("dd %g: tree does not grow from diameter %d to %d: %v nodes over %d seeds", dd, d-1, d, nodes, fig34Seeds)
			}
		}
		if nodes[5] < 10*nodes[1] {
			t.Errorf("dd %g: diameter 6 under ten times diameter 2: %v nodes over %d seeds", dd, nodes, fig34Seeds)
		}
	}
}

// TestFigure4Shape asserts the count side of the paper's Figure 4 at 10 %
// definitional mappings on 96-peer strata specs: the number of rewritings
// the tree yields grows strictly with diameter from 2 on. On average over
// the seeds it reads 1, 2, 14, 95 and 513 for diameters 1 to 5.
func TestFigure4Shape(t *testing.T) {
	var rewritings []int // summed over the seeds, by diameter - 1
	for d := 1; d <= 5; d++ {
		sum := 0
		for seed := int64(0); seed < fig34Seeds; seed++ {
			spec, err := Generate(Params{Peers: 96, Topology: Strata, Diameter: d, DefRatio: 0.10, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			r, _, q := strataTree(t, spec)
			if _, err := r.Stream(q, func(lang.CQ) bool { sum++; return true }); err != nil {
				t.Fatal(err)
			}
		}
		rewritings = append(rewritings, sum)
	}
	for d := 3; d <= 5; d++ {
		if rewritings[d-1] <= rewritings[d-2] {
			t.Errorf("rewritings do not grow from diameter %d to %d: %v over %d seeds", d-1, d, rewritings, fig34Seeds)
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
	"engine.bindjoin_compiles":  "counter",
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
