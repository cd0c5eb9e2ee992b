// Package experiments reproduces the paper's evaluation (Section 5):
// Figure 3 (rule-goal tree size vs PDMS diameter, by %definitional
// mappings), Figure 4 (time to the 1st/10th/all rewritings vs diameter),
// the in-text node-generation-rate claim, and the ablations of the Section
// 4.3 optimizations (ARCHITECTURE.md §2). cmd/figures is the one command
// over this package; the root benchmarks time the same generator
// (internal/workload, at this package's DefaultPeers) and internal/core
// directly, so they share its inputs but none of its code.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/workload"
)

// DefaultPeers matches the paper's 96-peer PDMS.
const DefaultPeers = 96

// Fig3Point is one data point of Figure 3.
type Fig3Point struct {
	Diameter int
	DefRatio float64
	// Nodes is the mean rule-goal tree size over the runs.
	Nodes float64
	// BuildTime is the mean construction time.
	BuildTime time.Duration
}

// Figure3 sweeps tree size over diameters and definitional ratios,
// averaging `runs` generator seeds per point (the paper averages 100 runs).
func Figure3(peers int, diameters []int, ratios []float64, runs int, opts core.Options) ([]Fig3Point, error) {
	var out []Fig3Point
	for _, dd := range ratios {
		for _, d := range diameters {
			var nodes float64
			var dur time.Duration
			for run := 0; run < runs; run++ {
				st, elapsed, err := buildOne(peers, d, dd, int64(run), opts)
				if err != nil {
					return nil, err
				}
				nodes += float64(st.Nodes())
				dur += elapsed
			}
			out = append(out, Fig3Point{
				Diameter:  d,
				DefRatio:  dd,
				Nodes:     nodes / float64(runs),
				BuildTime: dur / time.Duration(runs),
			})
		}
	}
	return out, nil
}

func buildOne(peers, diameter int, dd float64, seed int64, opts core.Options) (core.Stats, time.Duration, error) {
	return buildOneCov(peers, diameter, dd, 1.0, seed, opts)
}

func buildOneCov(peers, diameter int, dd, coverage float64, seed int64, opts core.Options) (core.Stats, time.Duration, error) {
	w, err := workload.Generate(workload.Params{
		Peers:         peers,
		Diameter:      diameter,
		DefRatio:      dd,
		StoreCoverage: coverage,
		Seed:          seed,
	})
	if err != nil {
		return core.Stats{}, 0, err
	}
	r, err := core.New(w.PDMS, opts)
	if err != nil {
		return core.Stats{}, 0, err
	}
	start := time.Now()
	st, err := r.BuildTree(w.Query)
	if err != nil {
		return core.Stats{}, 0, err
	}
	return st, time.Since(start), nil
}

// Fig4Point is one data point of Figure 4.
type Fig4Point struct {
	Diameter   int
	First      time.Duration // time to the 1st rewriting
	Tenth      time.Duration // time to the 10th rewriting
	All        time.Duration // time to exhaust extraction
	Rewritings int           // total rewritings found
}

// Figure4 measures streaming extraction latency at a fixed definitional
// ratio (the paper uses 10%), averaging `runs` seeds per diameter.
func Figure4(peers int, diameters []int, dd float64, runs int, opts core.Options) ([]Fig4Point, error) {
	var out []Fig4Point
	for _, d := range diameters {
		var first, tenth, all time.Duration
		var rewritings int
		for run := 0; run < runs; run++ {
			p, err := streamOne(peers, d, dd, int64(run), opts)
			if err != nil {
				return nil, err
			}
			first += p.First
			tenth += p.Tenth
			all += p.All
			rewritings += p.Rewritings
		}
		out = append(out, Fig4Point{
			Diameter:   d,
			First:      first / time.Duration(runs),
			Tenth:      tenth / time.Duration(runs),
			All:        all / time.Duration(runs),
			Rewritings: rewritings / runs,
		})
	}
	return out, nil
}

func streamOne(peers, diameter int, dd float64, seed int64, opts core.Options) (Fig4Point, error) {
	w, err := workload.Generate(workload.Params{
		Peers:    peers,
		Diameter: diameter,
		DefRatio: dd,
		Seed:     seed,
	})
	if err != nil {
		return Fig4Point{}, err
	}
	r, err := core.New(w.PDMS, opts)
	if err != nil {
		return Fig4Point{}, err
	}
	var p Fig4Point
	p.Diameter = diameter
	start := time.Now()
	n := 0
	_, err = r.Stream(w.Query, func(lang.CQ) bool {
		n++
		switch n {
		case 1:
			p.First = time.Since(start)
		case 10:
			p.Tenth = time.Since(start)
		}
		return true
	})
	if err != nil {
		return Fig4Point{}, err
	}
	p.All = time.Since(start)
	p.Rewritings = n
	// When fewer than 10 (or 1) rewritings exist, report the full time for
	// the missing marks, as the paper's plots do implicitly.
	if n < 10 {
		p.Tenth = p.All
	}
	if n < 1 {
		p.First = p.All
	}
	return p, nil
}

// RatePoint reports the node-generation-rate measurement (the paper quotes
// ~1,000 nodes/second on 2003 hardware).
type RatePoint struct {
	Diameter    int
	Nodes       int
	BuildTime   time.Duration
	NodesPerSec float64
}

// NodeRate measures node generation throughput during step 2.
func NodeRate(peers int, diameters []int, dd float64, runs int) ([]RatePoint, error) {
	var out []RatePoint
	for _, d := range diameters {
		var nodes int
		var dur time.Duration
		for run := 0; run < runs; run++ {
			st, elapsed, err := buildOne(peers, d, dd, int64(run), core.Options{})
			if err != nil {
				return nil, err
			}
			nodes += st.Nodes()
			dur += elapsed
		}
		rp := RatePoint{Diameter: d, Nodes: nodes / runs, BuildTime: dur / time.Duration(runs)}
		if dur > 0 {
			rp.NodesPerSec = float64(nodes) / dur.Seconds()
		}
		out = append(out, rp)
	}
	return out, nil
}

// Ablation compares tree construction with one optimization toggled off.
type AblationPoint struct {
	Diameter int
	Name     string
	On, Off  core.Stats
	TimeOn   time.Duration
	TimeOff  time.Duration
}

// Ablations runs the A1/A3 sweeps — Section 4.3's memoization and priority
// ordering — on a 40%-store-coverage workload: the storeless bottom
// relations create the repeated dead-end subtrees those optimizations
// exist for. (A2, unsat pruning, needs comparison predicates and lives in
// BenchmarkAblationPruning over the range-partitioned spec.)
func Ablations(peers int, diameters []int, dd float64, runs int) ([]AblationPoint, error) {
	const coverage = 0.4
	var out []AblationPoint
	toggles := []struct {
		name string
		off  core.Options
	}{
		{"memo", core.Options{NoMemo: true}},
		{"priority", core.Options{NoPriority: true}},
	}
	for _, tg := range toggles {
		for _, d := range diameters {
			var p AblationPoint
			p.Diameter = d
			p.Name = tg.name
			for run := 0; run < runs; run++ {
				stOn, tOn, err := buildOneCov(peers, d, dd, coverage, int64(run), core.Options{})
				if err != nil {
					return nil, err
				}
				stOff, tOff, err := buildOneCov(peers, d, dd, coverage, int64(run), tg.off)
				if err != nil {
					return nil, err
				}
				p.On = addStats(p.On, stOn)
				p.Off = addStats(p.Off, stOff)
				p.TimeOn += tOn
				p.TimeOff += tOff
			}
			p.TimeOn /= time.Duration(runs)
			p.TimeOff /= time.Duration(runs)
			out = append(out, p)
		}
	}
	return out, nil
}

func addStats(a, b core.Stats) core.Stats {
	a.GoalNodes += b.GoalNodes
	a.RuleNodes += b.RuleNodes
	a.PrunedUnsat += b.PrunedUnsat
	a.MemoHits += b.MemoHits
	a.DeadEnds += b.DeadEnds
	a.Rewritings += b.Rewritings
	a.DiscardUnsat += b.DiscardUnsat
	return a
}

// FormatFig3 renders Figure 3 points as TSV.
func FormatFig3(points []Fig3Point) string {
	s := "diameter\tdd\tnodes\tbuild_ms\n"
	for _, p := range points {
		s += fmt.Sprintf("%d\t%.0f%%\t%.1f\t%.3f\n", p.Diameter, p.DefRatio*100, p.Nodes,
			float64(p.BuildTime.Microseconds())/1000)
	}
	return s
}

// FormatFig4 renders Figure 4 points as TSV.
func FormatFig4(points []Fig4Point) string {
	s := "diameter\tfirst_ms\ttenth_ms\tall_ms\trewritings\n"
	for _, p := range points {
		s += fmt.Sprintf("%d\t%.3f\t%.3f\t%.3f\t%d\n", p.Diameter,
			ms(p.First), ms(p.Tenth), ms(p.All), p.Rewritings)
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
