// Command figures regenerates the paper's evaluation figures as TSV series
// (Section 5: Figures 3 and 4), plus the in-text node-generation-rate
// measurement (internal/experiments). The Section 4.3 optimizations always
// run, so there is no ablation sweep.
//
// Usage:
//
//	figures -fig 3 [-peers 96] [-runs 10] [-maxdiam 10]
//	figures -fig 4 [-dd 0.10] ...
//	figures -fig rate
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	fig := flag.String("fig", "3", "which figure: 3, 4, rate")
	peers := flag.Int("peers", experiments.DefaultPeers, "number of peers (paper: 96)")
	runs := flag.Int("runs", 10, "generator seeds averaged per point (paper: 100)")
	maxDiam := flag.Int("maxdiam", 0, "largest PDMS diameter (0 = 10 for fig 3/rate, 6 for fig 4 whose exhaustive extraction is exponential)")
	dd := flag.Float64("dd", 0.10, "definitional-mapping ratio for figure 4 / rate")
	flag.Parse()

	limit := *maxDiam
	if limit == 0 {
		limit = 10
		if *fig == "4" {
			limit = 6
		}
	}
	diams := make([]int, 0, limit)
	for d := 1; d <= limit; d++ {
		diams = append(diams, d)
	}

	var err error
	switch *fig {
	case "3":
		var pts []experiments.Fig3Point
		pts, err = experiments.Figure3(*peers, diams, []float64{0, 0.10, 0.25, 0.50}, *runs)
		if err == nil {
			fmt.Print(experiments.FormatFig3(pts))
		}
	case "4":
		var pts []experiments.Fig4Point
		pts, err = experiments.Figure4(*peers, diams, *dd, *runs)
		if err == nil {
			fmt.Print(experiments.FormatFig4(pts))
		}
	case "rate":
		var pts []experiments.RatePoint
		pts, err = experiments.NodeRate(*peers, diams, *dd, *runs)
		if err == nil {
			fmt.Println("diameter\tnodes\tbuild_ms\tnodes_per_sec")
			for _, p := range pts {
				fmt.Printf("%d\t%d\t%.3f\t%.0f\n", p.Diameter, p.Nodes,
					float64(p.BuildTime.Microseconds())/1000, p.NodesPerSec)
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "figures: unknown -fig %q\n", *fig)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}
