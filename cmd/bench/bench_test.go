package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// smokeRuns memoizes smoke-scale runs, so the tests below share them.
var smokeRuns sync.Map

type smokeKey struct {
	workload string
	seed     int64
	trace    bool
	pass     int // distinguishes repeated runs of the same inputs
}

func smokeRun(t *testing.T, k smokeKey) *record {
	t.Helper()
	if v, ok := smokeRuns.Load(k); ok {
		return v.(*record)
	}
	rec, err := runWorkload(runConfig{w: findWorkload(k.workload), seed: k.seed, sc: scale{smoke: true, seconds: 1}, trace: k.trace, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%+v: %v", k, err)
	}
	if rec.Failed != 0 {
		t.Fatalf("%+v: ops_failed = %d: %v", k, rec.Failed, rec.Errors)
	}
	smokeRuns.Store(k, rec)
	return rec
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesTables holds BENCHMARK.json and the tables in this
// package together.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, defaultSeconds = %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), defined %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, decl []manifestMetric, defs []metricDef, bounded bool) {
		if len(decl) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d defined", kind, len(decl), len(defs))
		}
		for i, d := range decl {
			def := defs[i]
			if d.Name != def.name || d.Unit != def.unit || d.Better != def.better {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, d, def)
			}
			switch {
			case bounded && (d.Bound == nil || *d.Bound != def.bound):
				t.Errorf("%s: bound declared %v, defined %v", d.Name, d.Bound, def.bound)
			case bounded && (*d.Bound <= 0 || *d.Bound > 0.25 || *d.Bound > *decl[0].Bound):
				t.Errorf("%s: bound %v outside (0, 0.25] or above set-up's, which must be the largest", d.Name, *d.Bound)
			case !bounded && d.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
	}
	if m.EndToEnd[0].Name != "setup_s" {
		t.Errorf("first end-to-end metric is %s, want setup_s", m.EndToEnd[0].Name)
	}
	same("end_to_end", m.EndToEnd, endToEnd, true)
	same("per_layer", m.PerLayer, perLayer, false)
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestEveryMetricEmittedOnce runs every workload at smoke scale, untraced
// and traced, and checks that the report names every declared metric
// exactly once, with a unit, and that the result line carries the same set.
func TestEveryMetricEmittedOnce(t *testing.T) {
	for i := range workloads {
		for _, trace := range []bool{false, true} {
			name := workloads[i].name
			rec := smokeRun(t, smokeKey{workload: name, seed: 16, trace: trace})
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			var out bytes.Buffer
			report(&out, rec, "unused")
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			seen := map[string]int{}
			for _, line := range lines {
				f := strings.Fields(line)
				if len(f) >= 4 && f[0] == name {
					seen[f[1]]++
					if !unitRE.MatchString(f[3]) {
						t.Errorf("%s trace=%v: metric %s printed with unit %q", name, trace, f[1], f[3])
					}
				}
			}
			var result struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result object: %v", name, trace, err)
			}
			if !result.Correct || result.Attempted < 1 || result.Failed != 0 {
				t.Errorf("%s trace=%v: result %+v", name, trace, result)
			}
			if len(result.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: result has %d metrics, %d declared", name, trace, len(result.Metrics), len(defs))
			}
			for _, d := range defs {
				if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
					t.Errorf("metric %q unit %q: outside the allowed alphabet", d.name, d.unit)
				}
				if seen[d.name] != 1 {
					t.Errorf("%s trace=%v: %s printed %d times", name, trace, d.name, seen[d.name])
				}
				got, ok := result.Metrics[d.name]
				if !ok || got.Value == nil || got.Unit != d.unit {
					t.Errorf("%s trace=%v: result lacks %s (%s)", name, trace, d.name, d.unit)
				}
				if !trace && ok && got.Value != nil && *got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.name, *got.Value)
				}
			}
			e := rec.Env
			if e.Commit == "" || e.GoVersion == "" || e.CPUModel == "" || e.NProc < 1 || e.GOMAXPROCS < 1 {
				t.Errorf("%s: incomplete environment record %+v", name, e)
			}
		}
	}
}

// TestCorruptOracleFailsTheRun damages one oracle row and expects the run
// to count a failed op and the command to exit non-zero.
func TestCorruptOracleFailsTheRun(t *testing.T) {
	corruptOracle = true
	defer func() { corruptOracle = false }()
	dir := t.TempDir()
	stdout := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	os.Stdout = null
	code := run([]string{"-smoke", "-workload", "join_mixed", "-out", dir})
	os.Stdout = stdout
	if code == 0 {
		t.Error("exit status 0 with a corrupted oracle row")
	}
	b, err := os.ReadFile(dir + "/join_mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Failed == 0 {
		t.Error("ops_failed = 0 with a corrupted oracle row")
	}
}

// TestModeGuard feeds the guard synthetic histograms: two modes meeting
// at the median trip it, the same modes meeting at the 27th percentile (the
// layout local_durable is built to have) do not.
func TestModeGuard(t *testing.T) {
	bimodal := func(fast int) []float64 {
		var lat []float64
		for i := 0; i < 200; i++ {
			v := 0.400 + 0.0002*float64(i)
			if i < fast {
				v = 0.005 + 0.00001*float64(i)
			}
			lat = append(lat, v)
		}
		return lat
	}
	if hit := modeGuard(bimodal(96), nil); len(hit) != 1 || hit[0] != "query_p50_ms" {
		t.Errorf("modes meeting at p48: guard named %v, want query_p50_ms", hit)
	}
	if hit := modeGuard(bimodal(174), nil); len(hit) != 1 || hit[0] != "query_p90_ms" {
		t.Errorf("modes meeting at p87: guard named %v, want query_p90_ms", hit)
	}
	if hit := modeGuard(bimodal(54), bimodal(54)); len(hit) != 0 {
		t.Errorf("modes meeting at p27: guard named %v", hit)
	}
	if hit := modeGuard(nil, bimodal(100)); len(hit) != 1 || hit[0] != "write_p50_ms" {
		t.Errorf("write modes meeting at p50: guard named %v, want write_p50_ms", hit)
	}
}

// sequence renders a plan's op sequences byte for byte.
func sequence(t *testing.T, workload string, seed int64) string {
	t.Helper()
	p, err := findWorkload(workload).plan(seed, scale{smoke: true, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%v\n%v\n%v", p.warm, p.main, p.writes)
}

// TestDeterminism: the same seed gives byte-identical op sequences and
// exactly equal counts across two runs; another seed gives another sequence
// that still verifies.
func TestDeterminism(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if a, b := sequence(t, w.name, 16), sequence(t, w.name, 16); a != b {
			t.Errorf("%s: seed 16 generated two different sequences", w.name)
		}
		if a, b := sequence(t, w.name, 16), sequence(t, w.name, 17); a == b {
			t.Errorf("%s: seeds 16 and 17 generated the same sequence", w.name)
		}
		first := smokeRun(t, smokeKey{workload: w.name, seed: 16, trace: true})
		second := smokeRun(t, smokeKey{workload: w.name, seed: 16, trace: true, pass: 1})
		exact := []string{"core.nodes_per_query", "core.rewritings_per_query"}
		if w.clients == 1 {
			exact = append(exact, "netpeer.requests_per_query")
		}
		for _, name := range exact {
			if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
				t.Errorf("%s: %s = %v, then %v", w.name, name, a, b)
			}
		}
		if first.AnswerRows != second.AnswerRows || first.AnswerRows == 0 {
			t.Errorf("%s: %d answer rows, then %d", w.name, first.AnswerRows, second.AnswerRows)
		}
		// smokeRun fails the test on any failed op or check.
		smokeRun(t, smokeKey{workload: w.name, seed: 17})
	}
}

func TestQuartilesCutAsPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// TestCompareVerdicts gives the comparison three metrics: one that agrees,
// one whose B side is worse beyond the bound, and one whose own runs spread
// beyond the bound.
func TestCompareVerdicts(t *testing.T) {
	set := func(p50, rss, qps []float64) *runSet {
		s := &runSet{}
		for i := range p50 {
			s.Runs = append(s.Runs, &record{Workload: "join_mixed", Metrics: map[string]value{
				"query_p50_ms": {Value: p50[i]}, "peak_rss_mb": {Value: rss[i]}, "queries_per_s": {Value: qps[i]},
			}})
		}
		return s
	}
	a := set([]float64{1.00, 1.01, 0.99, 1.00}, []float64{100, 101, 99, 100}, []float64{1000, 700, 1300, 1000})
	b := set([]float64{1.02, 1.01, 1.00, 1.01}, []float64{120, 121, 119, 120}, []float64{1000, 700, 1300, 1000})
	got := map[string]string{}
	vs := compareSets(a, b, false)
	for _, v := range vs {
		got[v.metric] = v.status
	}
	want := map[string]string{"query_p50_ms": "ok", "peak_rss_mb": "out_of_bound", "queries_per_s": "unresolved"}
	for m, st := range want {
		if got[m] != st {
			t.Errorf("%s: verdict %q, want %q", m, got[m], st)
		}
	}
	stdout := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	os.Stdout = null
	code := printVerdicts(vs)
	os.Stdout = stdout
	if code == 0 {
		t.Error("exit status 0 with an out-of-bound gap")
	}
	// An improvement beyond the bound is a disagreement only between two
	// sets of runs of the same code.
	for _, symmetric := range []bool{false, true} {
		for _, v := range compareSets(b, a, symmetric) {
			if v.metric == "peak_rss_mb" && (v.status == "out_of_bound") != symmetric {
				t.Errorf("symmetric=%v: B better than A by 17%% judged %q", symmetric, v.status)
			}
		}
	}
}
