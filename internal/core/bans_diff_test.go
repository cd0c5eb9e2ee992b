package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/ppl"
	"repro/internal/swarm"
	"repro/internal/workload"
)

// banOptions are the option sets the bitset ban sets are compared under:
// the memo and the subtree pruning are the two consumers of ban sets and
// dense description indexes.
var banOptions = []core.Options{
	{},
	{NoMemo: true},
	{NoPruneSubsumed: true},
	{NoMemo: true, NoPruneSubsumed: true},
}

// assertBansAgree builds q's tree on bitset ban sets and on the map-based
// reference, under every option set, and demands the same statistics — all
// ten fields — and the same rewritings in the same order. It returns the
// memo hits seen, so a corpus can show its restricted ban sets were compared.
func assertBansAgree(t *testing.T, label string, spec *ppl.PDMS, q lang.CQ) (memoHits int) {
	t.Helper()
	for _, opts := range banOptions {
		opts.MaxNodes, opts.MaxRewritings = 200_000, 2_000
		r, err := core.New(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		var got, want []string
		gs, gerr := r.Stream(q, func(cq lang.CQ) bool { got = append(got, cq.String()); return true })
		ws, werr := r.StreamMapBans(q, func(cq lang.CQ) bool { want = append(want, cq.String()); return true })
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s %+v: bitset error %v, map error %v", label, opts, gerr, werr)
		}
		if gs != ws {
			t.Fatalf("%s %+v: stats differ\nbitset %+v\nmap    %+v", label, opts, gs, ws)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s %+v: rewritings differ\nbitset %v\nmap    %v", label, opts, got, want)
		}
		memoHits += gs.MemoHits
	}
	return memoHits
}

func TestBitsetBansMatchMapBansOnSwarmCorpus(t *testing.T) {
	for _, p := range []swarm.Params{
		{Peers: 8, Topology: swarm.Chain, Seed: 1},
		{Peers: 12, Topology: swarm.Star, Seed: 1},
		{Peers: 12, Topology: swarm.SmallWorld, Seed: 2},
		{Peers: 7, Topology: swarm.Chain, QueryLen: 2, Seed: 3},
		{Peers: 13, Topology: swarm.SmallWorld, StoreCoverage: 0.5, Seed: 3},
		{Peers: 70, Topology: swarm.SmallWorld, Seed: 16}, // more descriptions than one word holds
	} {
		spec, err := swarm.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := parser.Parse(spec.Mediator)
		if err != nil {
			t.Fatal(err)
		}
		texts := []string{spec.Query}
		for peer := 0; peer < p.Peers && peer < 4; peer++ {
			texts = append(texts, fmt.Sprintf("q(y) :- %s(%q, y)", swarm.PeerRel(peer), "v1"))
		}
		for _, text := range texts {
			q, err := parser.ParseQuery(text)
			if err != nil {
				t.Fatal(err)
			}
			assertBansAgree(t, fmt.Sprintf("%s/%d peers: %s", p.Topology, p.Peers, text), res.PDMS, q)
		}
	}
}

// TestBitsetBansMatchMapBansOnWorkloadCorpus covers the §5 generator:
// layered inclusion and definitional mappings, with store dead ends at the
// lower coverages — which the memo, with the hopeless-predicate prune off,
// gets to record and look up under restricted ban sets.
func TestBitsetBansMatchMapBansOnWorkloadCorpus(t *testing.T) {
	memoHits := 0
	for seed := int64(0); seed < 6; seed++ {
		for _, p := range []workload.Params{
			{Peers: 12, Diameter: 3, DefRatio: 0, Seed: seed},
			{Peers: 20, Diameter: 5, DefRatio: 0, StoreCoverage: 0.4, Seed: seed},
			{Peers: 12, Diameter: 4, DefRatio: 0.25, StoreCoverage: 0.5, Seed: seed},
			{Peers: 16, Diameter: 4, DefRatio: 0.5, StoreCoverage: 0.7, Replication: 3, Seed: seed},
		} {
			w, err := workload.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			memoHits += assertBansAgree(t, fmt.Sprintf("workload %+v", p), w.PDMS, w.Query)
		}
	}
	if memoHits == 0 {
		t.Error("no corpus tree hit the memo: the restricted ban sets went uncompared")
	}
}

// TestBitsetBansMatchMapBansOnFuzzSeeds replays FuzzPPLReformulate's
// committed corpus: replicated mappings, decoys, equalities (whose two
// inclusions share one description), definitional layers, comparisons.
func TestBitsetBansMatchMapBansOnFuzzSeeds(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzPPLReformulate", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus: %v", err)
	}
	compared := 0
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var args []string
		for _, line := range strings.Split(string(raw), "\n") {
			if !strings.HasPrefix(line, "string(") {
				continue
			}
			s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			args = append(args, s)
		}
		if len(args) != 2 {
			t.Fatalf("%s: %d string arguments, want spec and query", f, len(args))
		}
		res, err := parser.Parse(args[0])
		if err != nil {
			continue // the fuzz target skips these too
		}
		q, err := parser.ParseQuery(args[1])
		if err != nil {
			continue
		}
		assertBansAgree(t, filepath.Base(f), res.PDMS, q)
		compared++
	}
	if compared < 6 {
		t.Errorf("only %d corpus entries parsed", compared)
	}
}
