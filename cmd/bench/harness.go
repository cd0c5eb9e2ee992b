package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/pdms"
)

// segments is how many equal contiguous pieces every measured op sequence
// is cut into. Each latency and throughput metric is the mean of the three
// middle per-segment values, so a burst from a noisy neighbour spoils one
// segment and not the run.
const segments = 5

// op is one operation of a workload's seeded sequence: a query posed at the
// mediator (or the local network), or one write batch.
type op struct {
	write bool
	// text is the query text of a query op.
	text string
	// want is the number of answer rows the generator's arithmetic
	// predicts, or -1 when only the sampled oracle comparison checks it.
	want int
	// sample marks a query whose full answer is kept and compared with
	// the oracle after the run.
	sample bool
	// pred, peer and rows describe a write batch: rows go into stored
	// relation pred, served by peer (networked workloads).
	pred string
	peer int
	rows [][]string
}

// segStats is what one segment of a measured phase recorded. Its times
// are net of the calibration kernel and in reference time (see calib.go):
// raw time divided by the segment's dilation.
type segStats struct {
	wall    float64 // seconds, first op started to last op finished
	cpu     float64 // seconds of process user+sys CPU over the segment
	queries int
	writes  int
	rows    int // answer tuples returned
	facts   int // facts acknowledged
	qlat    []float64
	wlat    []float64

	rawWall  float64 // seconds as the clock read them, calibration included
	dilation float64
}

// phaseResult is one measured phase: its segments, the failures seen, and
// the answers kept for the oracle comparison.
type phaseResult struct {
	segs    []segStats
	failed  int
	errs    []string
	sampled map[string][]pdms.Answer
}

// fail records one failed op. Only the first few messages are kept.
func (r *phaseResult) fail(msg string) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, msg)
	}
}

// driver runs one op against the system under test and returns the answer
// (queries) or nil (writes). The untraced and the traced run differ only in
// the driver they pass to runPhase.
type driver func(client, index int, o *op) ([]pdms.Answer, error)

// runPhase drives ops in closed loop with the given number of clients.
// Ops are dealt to clients alternately; the clients meet at the end of every
// segment, so a segment's wall time covers exactly its own ops.
func runPhase(ops []op, clients int, drive driver) *phaseResult {
	res := &phaseResult{sampled: map[string][]pdms.Answer{}}
	n := len(ops)
	var mu sync.Mutex // guards res.failed, res.errs, res.sampled across clients
	for s := 0; s < segments; s++ {
		lo, hi := s*n/segments, (s+1)*n/segments
		parts := make([]segStats, clients)
		refs := make([]calibration, clients)
		busy := make([]float64, clients)
		cpu0 := cpuSeconds()
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				st := &parts[c]
				for i := lo + c; i < hi; i += clients {
					o := &ops[i]
					start := time.Now()
					ans, err := drive(c, i, o)
					ms := float64(time.Since(start).Nanoseconds()) / 1e6
					bad := ""
					switch {
					case err != nil:
						bad = fmt.Sprintf("op %d: %v", i, err)
					case !o.write && o.want >= 0 && len(ans) != o.want:
						bad = fmt.Sprintf("op %d %s: %d rows, want %d", i, o.text, len(ans), o.want)
					}
					busy[c] += ms
					refs[c].keepUp(busy[c])
					if o.write {
						st.writes++
						st.wlat = append(st.wlat, ms)
						if err == nil {
							st.facts += len(o.rows)
						}
					} else {
						st.queries++
						st.qlat = append(st.qlat, ms)
						st.rows += len(ans)
					}
					if bad != "" || o.sample {
						mu.Lock()
						if bad != "" {
							res.fail(bad)
						} else {
							res.sampled[o.text] = ans
						}
						mu.Unlock()
					}
				}
			}(c)
		}
		wg.Wait()
		seg := segStats{rawWall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0}
		var ref calibration
		for c, p := range parts {
			seg.queries += p.queries
			seg.writes += p.writes
			seg.rows += p.rows
			seg.facts += p.facts
			seg.qlat = append(seg.qlat, p.qlat...)
			seg.wlat = append(seg.wlat, p.wlat...)
			ref.add(refs[c])
		}
		// Take the calibration's own time out (it ran on every client at
		// once, and is all CPU), then put what is left in reference time.
		seg.dilation = ref.dilation()
		seg.wall = (seg.rawWall - ref.ms/1e3/float64(clients)) / seg.dilation
		seg.cpu = (seg.cpu - ref.ms/1e3) / seg.dilation
		for i := range seg.qlat {
			seg.qlat[i] /= seg.dilation
		}
		for i := range seg.wlat {
			seg.wlat[i] /= seg.dilation
		}
		res.segs = append(res.segs, seg)
	}
	return res
}

// stat is one metric's value over the segments of a phase: the mean of the
// middle per-segment values (see middle), with the smallest and largest
// beside it.
type stat struct {
	Mid float64
	Min float64
	Max float64
}

// overSegments evaluates f on every segment that f accepts and folds the
// values into a stat.
func overSegments(segs []segStats, f func(*segStats) (float64, bool)) stat {
	var vs []float64
	for i := range segs {
		if v, ok := f(&segs[i]); ok {
			vs = append(vs, v)
		}
	}
	return statOf(vs, middle)
}

// statOf folds values into a stat; mid picks the reported value from the
// sorted values.
func statOf(vs []float64, mid func(sorted []float64) float64) stat {
	if len(vs) == 0 {
		return stat{}
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	return stat{Mid: mid(c), Min: c[0], Max: c[len(c)-1]}
}

// middle returns the mean of sorted values with the smallest and the
// largest set aside (all of them when there are fewer than three). Like the
// median it ignores one spoiled segment on either side; unlike the median it
// does not jump when two segments that differ for a reason (the data grows
// over a run) swap ranks.
func middle(sorted []float64) float64 {
	if len(sorted) >= 3 {
		sorted = sorted[1 : len(sorted)-1]
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return sum / float64(len(sorted))
}

// median returns the median of sorted values.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of vs and returns its median.
func medianOf(vs []float64) float64 {
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	return median(c)
}

// percentile returns the q-th percentile (0..100) of sorted values, by the
// nearest-rank rule.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q/100*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// latencyStat folds the per-segment q-th percentile of a latency series.
func latencyStat(segs []segStats, pick func(*segStats) []float64, q float64) stat {
	return overSegments(segs, func(s *segStats) (float64, bool) {
		lat := pick(s)
		if len(lat) == 0 {
			return 0, false
		}
		c := append([]float64(nil), lat...)
		sort.Float64s(c)
		return percentile(c, q), true
	})
}

func queryLat(s *segStats) []float64 { return s.qlat }
func writeLat(s *segStats) []float64 { return s.wlat }

// modeGapRatio is the jump between two adjacent sorted latencies that the
// guard reads as the boundary between two modes (a cache-hit mode and a
// recompute mode differ by far more; samples inside one mode by far less).
const modeGapRatio = 1.5

// modeBoundaryNear reports whether the sorted latencies have a mode
// boundary within 5 percentile points of the q-th percentile. A percentile
// that sits on such a boundary flips between the two modes from run to run,
// so a metric read there does not repeat.
func modeBoundaryNear(sorted []float64, q float64) bool {
	n := len(sorted)
	if n < 40 {
		return false
	}
	lo := int((q - 5) / 100 * float64(n))
	hi := int((q+5)/100*float64(n)) - 1
	if lo < 0 {
		lo = 0
	}
	if hi >= n {
		hi = n - 1
	}
	for i := lo; i < hi; i++ {
		if sorted[i] > 0 && sorted[i+1]/sorted[i] >= modeGapRatio {
			return true
		}
	}
	return false
}

// histogram gathers one latency series of a phase, sorted, and renders it
// as the latency at every fifth percentile.
func histogram(segs []segStats, pick func(*segStats) []float64) (sorted []float64, hist map[string]float64) {
	for i := range segs {
		sorted = append(sorted, pick(&segs[i])...)
	}
	sort.Float64s(sorted)
	hist = map[string]float64{}
	for q := 5; q <= 100; q += 5 {
		hist[fmt.Sprintf("p%02d", q)] = percentile(sorted, float64(q))
	}
	return sorted, hist
}

// modeGuard checks protocol rule 4 on a phase's recorded histograms and
// names the reported percentiles that sit on a mode boundary.
func modeGuard(queries, writes []float64) (hit []string) {
	for _, q := range []float64{50, 90} {
		if modeBoundaryNear(queries, q) {
			hit = append(hit, fmt.Sprintf("query_p%.0f_ms", q))
		}
	}
	if modeBoundaryNear(writes, 50) {
		hit = append(hit, "write_p50_ms")
	}
	return hit
}

// cpuSeconds returns the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
