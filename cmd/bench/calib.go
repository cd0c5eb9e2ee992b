package main

import (
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is shared: the same pure-CPU loop takes
// 350 to 540 ms from one second to the next, with waves that last longer
// than a run, so a raw time is a sample of the neighbours as much as of the
// program, and no two runs of the same code agree within a tenth. The
// harness therefore measures the host's speed while it measures the
// program: a fixed reference kernel runs on the client's goroutine between
// ops, for a seventh of the time the ops take (and beside the parts of set-up
// that are single calls, see timedPart), and every time the benchmark
// reports is the raw time divided by the dilation the kernel saw in the same
// segment (its mean duration there over refNominalMS). Times are thus in
// milliseconds of the reference box at rest. The kernel is the benchmark's
// own code, so a change to the program does not change its work; it does
// share the process, though, and the program's cache footprint and garbage
// reach it weakly (its mean duration differs by up to 15% between the four
// workloads). Raw times and dilations are written to the output file beside
// the reported values, so a gain can be checked against them.

// refNominalMS is the reference kernel's duration on the 2-core reference
// box with nothing else running (the floor of many runs).
const refNominalMS = 0.20

// refShare is the calibration's share of the time the ops take.
const refShare = 0.15

var refSink atomic.Int64

// refChain is a random cycle through 32 MiB of memory, far more than the
// caches hold; following it costs one memory access per step.
var refChain = func() []uint32 {
	const n = 8 << 20
	chain := make([]uint32, n)
	// Sattolo's algorithm, on a fixed generator: one cycle through every
	// slot.
	for i := range chain {
		chain[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}()

// refKernel is a fixed piece of work of the kind the program does: string
// building, map inserts, allocation and a sort, which the caches serve, and
// a short walk through memory they do not hold, as a probe of a large
// relation is. The mix was fitted: over the segments of 32 runs the raw
// segment time followed the cached part's duration with a slope of 0.9 to
// 1.2 and the walk's with about 0.2, leaving 2 to 3% unexplained; a kernel
// run on both cores at once tracked worse. pos is where the caller's walk
// stands; each caller keeps its own.
func refKernel(pos *uint32) {
	m := make(map[string]int, 256)
	keys := make([]string, 0, 600)
	for i := 0; i < 600; i++ {
		k := "k" + strconv.Itoa(i*7919%100003)
		m[k] += i
		keys = append(keys, k)
	}
	sort.Strings(keys)
	p := *pos
	for i := 0; i < 200; i++ {
		p = refChain[p]
	}
	*pos = p
	refSink.Add(int64(len(m) + len(keys[0])))
}

// calibration accumulates reference-kernel samples.
type calibration struct {
	ms  float64
	n   int
	pos uint32
}

// sample runs the kernel once.
func (c *calibration) sample() {
	t0 := time.Now()
	refKernel(&c.pos)
	c.ms += float64(time.Since(t0).Nanoseconds()) / 1e6
	c.n++
}

// keepUp runs the kernel until it has had its share of busyMS.
func (c *calibration) keepUp(busyMS float64) {
	for c.ms < refShare*busyMS {
		c.sample()
	}
}

func (c *calibration) add(o calibration) {
	c.ms += o.ms
	c.n += o.n
}

// dilation is how much slower than the reference box at rest the host ran
// while the samples were taken.
func (c *calibration) dilation() float64 {
	if c.n == 0 {
		return 1
	}
	return c.ms / float64(c.n) / refNominalMS
}

// refBurst is how many kernel runs bracket a timed part of set-up on each
// side, and refPause how long the sampler sleeps between two runs inside
// it.
const (
	refBurst = 60
	refPause = 2 * time.Millisecond
)

// timedPart runs f, a part of set-up the harness cannot put kernel runs
// into (a load, a boot, a journal replay), and returns its wall time in
// reference seconds, and raw. The dilation comes from a sampler goroutine
// that runs the kernel every refPause while f runs (a few percent of one
// core), and from a burst of kernel runs on either side, which is all a
// very short part gets.
func timedPart(f func() error) (ref, raw float64, err error) {
	var c calibration
	for i := 0; i < refBurst; i++ {
		c.sample()
	}
	stop, done := make(chan struct{}), make(chan calibration)
	go func() {
		var s calibration
		for {
			select {
			case <-stop:
				done <- s
				return
			default:
				s.sample()
				time.Sleep(refPause)
			}
		}
	}()
	t0 := time.Now()
	err = f()
	raw = time.Since(t0).Seconds()
	close(stop)
	c.add(<-done)
	for i := 0; i < refBurst; i++ {
		c.sample()
	}
	return raw / c.dilation(), raw, err
}
