// Package repro's root benchmarks regenerate the paper's evaluation
// (Section 5). One benchmark per figure plus the in-text rate claim and an
// end-to-end run; cmd/figures prints the same series as TSV for plotting.
// The Section 4.3 optimizations always run, so there is no ablation sweep.
// Absolute times differ from the 2003 testbed by construction — the
// reported claims are the *shapes*: exponential tree growth in the
// diameter, growth with %dd, first rewritings arriving orders of magnitude
// before the full union, and step 3 (extraction) dominating step 2 (tree
// construction).
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lang"
	"repro/internal/workload"
)

// benchDiameters keeps bench runtime moderate while showing the growth
// curve; cmd/figures sweeps the paper's full 1–10.
var benchDiameters = []int{2, 4, 6, 8}

// BenchmarkFigure3 measures rule-goal tree construction (step 2) per
// diameter and definitional-mapping ratio: the paper's Figure 3 (reported
// metric: nodes in the tree; the benchmark also reports ns/op for
// construction).
func BenchmarkFigure3(b *testing.B) {
	for _, dd := range []float64{0, 0.10, 0.25, 0.50} {
		for _, d := range benchDiameters {
			name := fmt.Sprintf("dd=%.0f%%/diam=%d", dd*100, d)
			b.Run(name, func(b *testing.B) {
				w, err := workload.Generate(workload.Params{
					Peers: experiments.DefaultPeers, Diameter: d, DefRatio: dd, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				r, err := core.New(w.PDMS, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				var nodes int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st, err := r.BuildTree(w.Query)
					if err != nil {
						b.Fatal(err)
					}
					nodes = st.Nodes()
				}
				b.ReportMetric(float64(nodes), "nodes")
			})
		}
	}
}

// BenchmarkFigure4 measures time to the 1st / 10th / all rewritings at 10%
// definitional mappings: the paper's Figure 4. The three sub-benchmarks per
// diameter correspond to the figure's three series. The "all" series is
// capped at diameter 6: the rewriting count grows exponentially (7.8M
// conjunctive rewritings at diameter 8 on this generator — the paper's own
// conclusion that step 3 is the bottleneck, amplified), so exhaustive
// extraction beyond that belongs to cmd/figures runs, not the default
// bench.
func BenchmarkFigure4(b *testing.B) {
	for _, d := range benchDiameters {
		w, err := workload.Generate(workload.Params{
			Peers: experiments.DefaultPeers, Diameter: d, DefRatio: 0.10, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		r, err := core.New(w.PDMS, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, series := range []struct {
			name string
			k    int // stop after k rewritings; 0 = all
		}{
			{"first", 1},
			{"tenth", 10},
			{"all", 0},
		} {
			if series.k == 0 && d > 6 {
				continue
			}
			b.Run(fmt.Sprintf("diam=%d/%s", d, series.name), func(b *testing.B) {
				var total int
				for i := 0; i < b.N; i++ {
					n := 0
					_, err := r.Stream(w.Query, func(lang.CQ) bool {
						n++
						return series.k == 0 || n < series.k
					})
					if err != nil {
						b.Fatal(err)
					}
					total = n
				}
				b.ReportMetric(float64(total), "rewritings")
			})
		}
	}
}

// BenchmarkNodeRate measures node-generation throughput during step 2 (the
// paper quotes ~1,000 nodes/second on 2003 hardware with "relatively
// unoptimized code").
func BenchmarkNodeRate(b *testing.B) {
	w, err := workload.Generate(workload.Params{
		Peers: experiments.DefaultPeers, Diameter: 8, DefRatio: 0.10, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	r, err := core.New(w.PDMS, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var nodes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := r.BuildTree(w.Query)
		if err != nil {
			b.Fatal(err)
		}
		nodes = st.Nodes()
	}
	b.StopTimer()
	perOp := b.Elapsed().Seconds() / float64(b.N)
	if perOp > 0 {
		b.ReportMetric(float64(nodes)/perOp, "nodes/sec")
	}
}

// BenchmarkEndToEnd measures reformulate+execute over generated data — the
// full pipeline a PDMS peer runs per query.
func BenchmarkEndToEnd(b *testing.B) {
	w, err := workload.Generate(workload.Params{
		Peers: 48, Diameter: 4, DefRatio: 0.10, FactsPerStore: 8, DomainSize: 4, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	r, err := core.New(w.PDMS, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	// Random topologies can leave a query unreachable from storage; verify
	// this seed is productive before timing (fail loudly otherwise so the
	// benchmark never silently measures an empty pipeline).
	probe, err := r.Reformulate(w.Query)
	if err != nil {
		b.Fatal(err)
	}
	if probe.UCQ.Len() == 0 {
		b.Fatalf("seed produced no rewritings; choose another seed (query %s)", w.Query)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Reformulate(w.Query); err != nil {
			b.Fatal(err)
		}
	}
}
