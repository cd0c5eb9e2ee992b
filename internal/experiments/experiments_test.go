package experiments

import (
	"strings"
	"testing"
)

func TestFigure3SmallSweep(t *testing.T) {
	pts, err := Figure3(24, []int{1, 2, 3}, []float64{0, 0.25}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	// Growth with diameter within each ratio series.
	for _, dd := range []float64{0, 0.25} {
		var series []Fig3Point
		for _, p := range pts {
			if p.DefRatio == dd {
				series = append(series, p)
			}
		}
		if series[2].Nodes <= series[0].Nodes {
			t.Fatalf("dd=%v: no growth with diameter: %+v", dd, series)
		}
	}
	out := FormatFig3(pts)
	if !strings.HasPrefix(out, "diameter\tdd\tnodes") || strings.Count(out, "\n") != 7 {
		t.Fatalf("FormatFig3 = %q", out)
	}
}

func TestFigure4SmallSweep(t *testing.T) {
	pts, err := Figure4(24, []int{1, 2, 3}, 0.10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.First > p.All {
			t.Fatalf("first rewriting after all: %+v", p)
		}
		if p.Tenth > p.All {
			t.Fatalf("tenth rewriting after all: %+v", p)
		}
	}
	out := FormatFig4(pts)
	if !strings.Contains(out, "first_ms") {
		t.Fatalf("FormatFig4 = %q", out)
	}
}

func TestNodeRatePositive(t *testing.T) {
	pts, err := NodeRate(24, []int{2, 3}, 0.10, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Nodes <= 0 || p.NodesPerSec <= 0 {
			t.Fatalf("rate point = %+v", p)
		}
	}
}
