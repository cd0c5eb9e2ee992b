package core_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/ppl"
	"repro/internal/swarm"
)

// goldenPath holds the rewritings the reformulator produced for the golden
// corpus under every golden option set: each entry's ten Stats fields, its
// disjunct count, a SHA-256 of the newline-joined goldenCanonical sequence
// in order, and, up to goldenTextMax disjuncts, the sequence itself.
const goldenPath = "testdata/rewritings.golden"

const goldenTextMax = 20

// goldenOptions are the option sets every golden case runs under: the
// defaults, the subtree pruning off, and redundancy elimination off (so the
// extraction order itself is pinned).
var goldenOptions = []struct {
	label string
	opts  core.Options
}{
	{"default", core.Options{}},
	{"noprune", core.Options{NoPruneSubsumed: true}},
	{"keepredundant", core.Options{KeepRedundant: true}},
}

type goldenCase struct {
	label string
	spec  *ppl.PDMS
	query lang.CQ
}

// trapSpecs put constants in the places a query constant can meet one the
// specification already mentions: a definitional head, a view body, and a
// comparison bound. fresh is a query with a %q for a constant the
// specification never mentions.
var trapSpecs = []struct {
	label, spec string
	queries     []string
	fresh       string
}{
	{
		"definitional head",
		`
storage H.doc(s) in H:Doctor(s)
storage F.sk(s) in FS:Medic(s)
define DC:Skilled(s, "Doctor") :- H:Doctor(s)
define DC:Skilled(s, "EMT") :- FS:Medic(s)
`,
		[]string{`q(s) :- DC:Skilled(s, "EMT")`, `q(s) :- DC:Skilled(s, "Doctor")`, `q(s, k) :- DC:Skilled(s, k)`},
		`q(s) :- DC:Skilled(s, %q)`,
	},
	{
		"view body",
		`
storage S.a(x) in A:R(x, "a")
storage S.any(x, y) in A:R(x, y)
include B:T(x) in A:R(x, "b")
storage S.t(x) in B:T(x)
`,
		[]string{`q(x) :- A:R(x, "a")`, `q(x) :- A:R(x, "b")`, `q(x, y) :- A:R(x, y)`},
		`q(x) :- A:R(x, %q)`,
	},
	{
		"comparison bound",
		`
storage S.low(x, y) in A:T(x, y), x <= 10
storage S.high(x, y) in A:T(x, y), x > 10
`,
		[]string{`q(y) :- A:T("10", y)`, `q(y) :- A:T("11", y)`, `q(x, y) :- A:T(x, y), x >= 10`},
		`q(y) :- A:T(%q, y)`,
	},
}

// cyclicSpec is a cycle of inclusions over one relation name whose
// expansions keep revisiting the same goal contexts under growing ban sets:
// the unproductive-memo fires on it under the default options, which no
// generated case does (the hopeless-predicate prune gets there first).
const cyclicSpec = `
include P0:R(x, y) in P1:R(y, x)
include P2:R(x, y), P1:R(y, z) in P0:R(x, z)
include P1:R(x, y), P1:R(y, z) in P2:R(x, z)
storage S0.s(x, y) in P0:R(x, y)
`

const cyclicQuery = `q(x, z) :- P2:R(x, y), P2:R(y, z)`

// goldenCorpus lists every golden case: swarm topologies with their
// per-peer queries, the §5 strata topology, the interning traps, the
// cyclic memo spec, and FuzzPPLReformulate's committed corpus (replicated
// mappings, decoys, equalities, definitional layers, comparisons).
func goldenCorpus(tb testing.TB) []goldenCase {
	tb.Helper()
	var out []goldenCase
	for _, p := range []swarm.Params{
		{Peers: 8, Topology: swarm.Chain, Seed: 1},
		{Peers: 12, Topology: swarm.Star, Seed: 1},
		{Peers: 12, Topology: swarm.SmallWorld, Seed: 2},
		{Peers: 7, Topology: swarm.Chain, QueryLen: 2, Seed: 3},
		{Peers: 6, Topology: swarm.SmallWorld, QueryLen: 3, Seed: 4},
		{Peers: 13, Topology: swarm.SmallWorld, StoreCoverage: 0.5, Seed: 3},
		{Peers: 70, Topology: swarm.SmallWorld, Seed: 16}, // more descriptions than one word holds
	} {
		spec, err := swarm.Generate(p)
		if err != nil {
			tb.Fatal(err)
		}
		res, err := parser.Parse(spec.Mediator)
		if err != nil {
			tb.Fatal(err)
		}
		texts := []string{spec.Query}
		for peer := 0; peer < p.Peers && peer < 4; peer++ {
			texts = append(texts, fmt.Sprintf("q(y) :- %s(%q, y)", swarm.PeerRel(peer), "v1"))
		}
		for _, text := range texts {
			out = append(out, goldenCase{fmt.Sprintf("swarm %s/%d peers/qlen %d/seed %d: %s", p.Topology, p.Peers, p.QueryLen, p.Seed, text), res.PDMS, mustQuery(tb, text)})
		}
	}
	sps := []swarm.Params{{Peers: 12, Topology: swarm.Strata, Diameter: 3, DefRatio: 0.25, QueryLen: 3, Seed: 7}}
	for seed := int64(0); seed < 6; seed++ {
		sps = append(sps,
			swarm.Params{Peers: 12, Topology: swarm.Strata, Diameter: 3, DefRatio: 0, Seed: seed},
			swarm.Params{Peers: 20, Topology: swarm.Strata, Diameter: 5, DefRatio: 0, StoreCoverage: 0.4, Seed: seed},
			swarm.Params{Peers: 12, Topology: swarm.Strata, Diameter: 4, DefRatio: 0.25, StoreCoverage: 0.5, Seed: seed},
			swarm.Params{Peers: 16, Topology: swarm.Strata, Diameter: 4, DefRatio: 0.5, StoreCoverage: 0.7, Replication: 3, Seed: seed},
		)
	}
	for _, p := range sps {
		n, _, q := strata(tb, p)
		out = append(out, goldenCase{fmt.Sprintf("workload %+v", p), n, q})
	}
	for _, ts := range trapSpecs {
		res, err := parser.Parse(ts.spec)
		if err != nil {
			tb.Fatal(err)
		}
		for _, text := range ts.queries {
			out = append(out, goldenCase{"trap " + ts.label + ": " + text, res.PDMS, mustQuery(tb, text)})
		}
	}
	cyc, err := parser.Parse(cyclicSpec)
	if err != nil {
		tb.Fatal(err)
	}
	out = append(out, goldenCase{"cyclic: " + cyclicQuery, cyc.PDMS, mustQuery(tb, cyclicQuery)})
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzPPLReformulate", "*"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no fuzz corpus: %v", err)
	}
	for _, f := range files {
		args := fuzzArgs(tb, f)
		res, err := parser.Parse(args[0])
		if err != nil {
			continue // the fuzz target skips these too
		}
		q, err := parser.ParseQuery(args[1])
		if err != nil {
			continue
		}
		out = append(out, goldenCase{"fuzz " + filepath.Base(f), res.PDMS, q})
	}
	return out
}

func mustQuery(tb testing.TB, text string) lang.CQ {
	tb.Helper()
	q, err := parser.ParseQuery(text)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

// fuzzArgs reads a committed fuzz corpus file's two string arguments.
func fuzzArgs(tb testing.TB, path string) []string {
	tb.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var args []string
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "string(") {
			continue
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
		if err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		args = append(args, s)
	}
	if len(args) != 2 {
		tb.Fatalf("%s: %d string arguments, want spec and query", path, len(args))
	}
	return args
}

// goldenEntry renders one (case, option set) the way the golden file
// stores it.
func goldenEntry(r *core.Reformulator, q lang.CQ) string {
	res, err := r.Reformulate(q)
	if err != nil {
		return "error " + err.Error() + "\n"
	}
	s := res.Stats
	lines := make([]string, len(res.UCQ.Disjuncts))
	for i, d := range res.UCQ.Disjuncts {
		lines[i] = goldenCanonical(d)
	}
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	var sb strings.Builder
	fmt.Fprintf(&sb, "stats goal=%d rule=%d unsat=%d empty=%d subsumed=%d memo=%d dead=%d useless=%d rewritings=%d discard=%d\n",
		s.GoalNodes, s.RuleNodes, s.PrunedUnsat, s.PrunedEmpty, s.PrunedSubsumed, s.MemoHits, s.DeadEnds, s.UselessSkipped, s.Rewritings, s.DiscardUnsat)
	fmt.Fprintf(&sb, "disjuncts %d\nsha256 %s\n", len(lines), hex.EncodeToString(sum[:]))
	if len(lines) <= goldenTextMax {
		for _, l := range lines {
			sb.WriteString("  " + l + "\n")
		}
	}
	return sb.String()
}

// goldenCanonical is the canonical form the golden file was written in:
// lang.CQ.Canonical's as it stood then, with each constant written raw after
// "=". Canonical has since length-prefixed constants, to be injective; the
// golden file keeps this form, so a change of the key format cannot move it.
func goldenCanonical(q lang.CQ) string {
	var sb strings.Builder
	var vars []string
	term := func(t lang.Term) {
		if t.IsConst() {
			sb.WriteString("=" + t.Name)
			return
		}
		i := slices.Index(vars, t.Name)
		if i < 0 {
			i = len(vars)
			vars = append(vars, t.Name)
		}
		sb.WriteString("?" + strconv.Itoa(i))
	}
	atom := func(a lang.Atom) {
		sb.WriteString(a.Pred + "(")
		for i, t := range a.Args {
			if i > 0 {
				sb.WriteByte(',')
			}
			term(t)
		}
		sb.WriteByte(')')
	}
	atom(q.Head)
	sb.WriteString(":-")
	for i, a := range q.Body {
		if i > 0 {
			sb.WriteByte(',')
		}
		atom(a)
	}
	for _, c := range q.Comps {
		sb.WriteByte(',')
		term(c.L)
		sb.WriteString(c.Op.String())
		term(c.R)
	}
	return sb.String()
}

// goldenRun reformulates c under golden option set o.
func goldenRun(tb testing.TB, c goldenCase, o core.Options) string {
	tb.Helper()
	o.MaxNodes, o.MaxRewritings = 200_000, 2_000
	r, err := core.New(c.spec, o)
	if err != nil {
		tb.Fatal(err)
	}
	return goldenEntry(r, c.query)
}

// goldenKey names one entry of the golden file.
func goldenKey(c goldenCase, optsLabel string) string { return c.label + " | " + optsLabel }

// readGolden parses the golden file into entries by key: a "== key" line
// opens an entry, whose body runs to the next one.
func readGolden(tb testing.TB) map[string]string {
	tb.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	var key string
	var body strings.Builder
	flush := func() {
		if key != "" {
			out[key] = body.String()
		}
		body.Reset()
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if k, ok := strings.CutPrefix(line, "== "); ok {
			flush()
			key = k
			continue
		}
		body.WriteString(line + "\n")
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	flush()
	return out
}

// TestGoldenFileMatchesCorpus checks the golden file holds exactly one
// entry per corpus case and golden option set, so no case goes unjudged and
// no stale entry lingers.
func TestGoldenFileMatchesCorpus(t *testing.T) {
	golden := readGolden(t)
	corpus := goldenCorpus(t)
	keys := map[string]bool{}
	for _, c := range corpus {
		for _, o := range goldenOptions {
			key := goldenKey(c, o.label)
			if _, ok := golden[key]; !ok {
				t.Errorf("%s: no golden entry", key)
			}
			keys[key] = true
		}
	}
	for key := range golden {
		if !keys[key] {
			t.Errorf("%s: golden entry for no corpus case", key)
		}
	}
}

// assertGolden is the reformulator's judge: every corpus case whose label
// starts with prefix, under every golden option set, must produce the
// recorded statistics and the recorded rewritings in the recorded order.
func assertGolden(t *testing.T, prefix string) {
	t.Helper()
	golden := readGolden(t)
	n := 0
	for _, c := range goldenCorpus(t) {
		if !strings.HasPrefix(c.label, prefix) {
			continue
		}
		n++
		for _, o := range goldenOptions {
			key := goldenKey(c, o.label)
			want, ok := golden[key]
			if !ok {
				t.Errorf("%s: no golden entry", key)
				continue
			}
			if got := goldenRun(t, c, o.opts); got != want {
				t.Errorf("%s: rewritings differ from the golden file\ngot:\n%swant:\n%s", key, got, want)
			}
		}
	}
	if n == 0 {
		t.Fatalf("no corpus case labelled %q", prefix)
	}
}

func TestRewritingsMatchGoldenOnSwarmCorpus(t *testing.T) { assertGolden(t, "swarm ") }

func TestRewritingsMatchGoldenOnWorkloadCorpus(t *testing.T) { assertGolden(t, "workload ") }

func TestRewritingsMatchGoldenOnInterningTraps(t *testing.T) { assertGolden(t, "trap ") }

func TestRewritingsMatchGoldenOnCyclicSpec(t *testing.T) { assertGolden(t, "cyclic: ") }

func TestRewritingsMatchGoldenOnFuzzSeeds(t *testing.T) { assertGolden(t, "fuzz ") }
