// Package experiments reproduces the paper's evaluation (Section 5):
// Figure 3 (rule-goal tree size vs PDMS diameter, by %definitional
// mappings), Figure 4 (time to the 1st/10th/all rewritings vs diameter),
// and the in-text node-generation-rate claim. The Section 4.3
// optimizations always run (ARCHITECTURE.md §2), so there is no ablation
// sweep. cmd/figures is the one command over this package; the root
// benchmarks time the same generator (internal/workload, at this package's
// DefaultPeers) and internal/core directly, so they share its inputs but
// none of its code.
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
func Figure3(peers int, diameters []int, ratios []float64, runs int) ([]Fig3Point, error) {
	var out []Fig3Point
	for _, dd := range ratios {
		for _, d := range diameters {
			var nodes float64
			var dur time.Duration
			for run := 0; run < runs; run++ {
				st, elapsed, err := buildOne(peers, d, dd, int64(run))
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

func buildOne(peers, diameter int, dd float64, seed int64) (core.Stats, time.Duration, error) {
	w, err := workload.Generate(workload.Params{
		Peers:    peers,
		Diameter: diameter,
		DefRatio: dd,
		Seed:     seed,
	})
	if err != nil {
		return core.Stats{}, 0, err
	}
	r, err := core.New(w.PDMS, core.Options{})
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
func Figure4(peers int, diameters []int, dd float64, runs int) ([]Fig4Point, error) {
	var out []Fig4Point
	for _, d := range diameters {
		var first, tenth, all time.Duration
		var rewritings int
		for run := 0; run < runs; run++ {
			p, err := streamOne(peers, d, dd, int64(run))
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

func streamOne(peers, diameter int, dd float64, seed int64) (Fig4Point, error) {
	w, err := workload.Generate(workload.Params{
		Peers:    peers,
		Diameter: diameter,
		DefRatio: dd,
		Seed:     seed,
	})
	if err != nil {
		return Fig4Point{}, err
	}
	r, err := core.New(w.PDMS, core.Options{})
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
			st, elapsed, err := buildOne(peers, d, dd, int64(run))
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
