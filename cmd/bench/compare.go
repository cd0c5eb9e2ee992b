package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// runSet is the file -compare reads and -selfcompare writes: the records
// of several runs of one build.
type runSet struct {
	Label string    `json:"label"`
	Runs  []*record `json:"runs"`
}

func readRunSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := new(runSet)
	if err := json.Unmarshal(b, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

func (set *runSet) write(path string) error {
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// values returns the named metric's values over the set's runs of workload.
func (set *runSet) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range set.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// quartiles returns the first quartile, the median and the third quartile
// of vs, cut as Python's statistics.quantiles(vs, n=4) cuts them.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	m := len(c)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return c[0], c[0], c[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		d := float64(i*(m+1) - j*4)
		return (c[j-1]*(4-d) + c[j]*d) / 4
	}
	return cut(1), cut(2), cut(3)
}

// verdict is the outcome of comparing one metric on one workload.
type verdict struct {
	workload, metric string
	a, b             [3]float64 // q1, median, q3 of each side
	worse            float64    // share of A's median by which B is worse (negative: better)
	bound            float64
	status           string // ok, unresolved, out_of_bound
}

// compareSets judges every workload × end-to-end metric. B is out of bound
// when its median is worse than A's by more than the metric's bound;
// symmetric also counts a B that is better by more than the bound, which
// between two sets of runs of the same code is as much a disagreement. A
// metric whose own runs spread (interquartile, as a share of the median)
// beyond the bound on either side is unresolved: the data cannot tell.
func compareSets(a, b *runSet, symmetric bool) []verdict {
	var out []verdict
	for i := range workloads {
		name := workloads[i].name
		for _, d := range endToEnd {
			va, vb := a.values(name, d.name), b.values(name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict{workload: name, metric: d.name, bound: d.bound, status: "ok"}
			v.a[0], v.a[1], v.a[2] = quartiles(va)
			v.b[0], v.b[1], v.b[2] = quartiles(vb)
			v.worse = ratio(v.b[1]-v.a[1], v.a[1])
			if d.better == "higher" {
				v.worse = -v.worse
			}
			spread := math.Max(ratio(v.a[2]-v.a[0], v.a[1]), ratio(v.b[2]-v.b[0], v.b[1]))
			switch {
			case v.worse > d.bound || (symmetric && -v.worse > d.bound):
				v.status = "out_of_bound"
			case spread > d.bound:
				v.status = "unresolved"
			}
			out = append(out, v)
		}
	}
	return out
}

// printVerdicts prints the comparison and returns the process exit code:
// non-zero when any gap is out of bound.
func printVerdicts(vs []verdict) int {
	fmt.Printf("%-14s %-18s %38s %38s %8s %6s  %s\n", "workload", "metric",
		"A median [q1 .. q3]", "B median [q1 .. q3]", "B worse", "bound", "verdict")
	code := 0
	for _, v := range vs {
		side := func(q [3]float64) string { return fmt.Sprintf("%.4f [%.4f .. %.4f]", q[1], q[0], q[2]) }
		fmt.Printf("%-14s %-18s %38s %38s %+7.2f%% %5.0f%%  %s\n", v.workload, v.metric, side(v.a), side(v.b), 100*v.worse, 100*v.bound, v.status)
		if v.status == "out_of_bound" {
			code = 1
		}
	}
	return code
}

func compareFiles(pathA, pathB string) int {
	a, err := readRunSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readRunSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return printVerdicts(compareSets(a, b, false))
}

// selfCompare makes o.selfcompare pairs of runs of this same build, every
// workload in a process of its own, the two sides taking turns to go first
// and each pair on a seed of its own, writes the two sets and compares
// them. It is how the benchmark's own repeatability is checked.
func selfCompare(o options) int {
	a, b := &runSet{Label: "A"}, &runSet{Label: "B"}
	for pair := 0; pair < o.selfcompare; pair++ {
		sides := []*runSet{a, b}
		if pair%2 == 1 {
			sides = []*runSet{b, a}
		}
		for _, side := range sides {
			for i := range workloads {
				rec, err := runChild(o, workloads[i].name, o.seed+int64(pair))
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				side.Runs = append(side.Runs, rec)
			}
		}
	}
	pathA, pathB := filepath.Join(o.outDir, "selfcompare.A.json"), filepath.Join(o.outDir, "selfcompare.B.json")
	if err := a.write(pathA); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := b.write(pathB); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("# wrote %s and %s\n", pathA, pathB)
	return printVerdicts(compareSets(a, b, true))
}
