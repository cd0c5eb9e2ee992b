// Command loadgen drives a peerd instance with open-loop load and reports
// latency percentiles, shed counts, and server-side metric deltas per
// offered-QPS stage.
//
// Open loop means arrivals are scheduled by the clock, not by completions:
// op i of a stage fires at stage start + i/QPS regardless of how many
// earlier ops are still in flight, and each op's latency is measured from
// its *scheduled* fire time. A server that stalls therefore shows up as
// growing latency (and eventually shed errors), never as a politely
// slowed-down generator — the coordinated-omission trap closed-loop
// benchmarks fall into.
//
// Usage (smoke scale, as in CI):
//
//	loadgen -addr 127.0.0.1:7410 -metrics http://127.0.0.1:9100/metrics \
//	        -qps 100,200,400 -duration 3s -seed 2000 -mutate-every 10 \
//	        -out report.json
//
// Traffic is a query/mutation mix: every -mutate-every'th op is an add
// (one row into -add-pred), the rest scan -pred (seeded with -seed rows
// first). -slow N starts N slow consumers that stream a scan while
// stalling -slow-ms per row — with big enough data their backpressure pins
// admission slots, the production incident the admission gate exists for.
//
// With -swarm pointed at a manifest written by cmd/swarm, the read ops
// become full distributed queries instead: each one reformulates the
// swarm's entry query at a local mediator and executes the rewriting across
// every peer on its reformulation paths, so a deep topology's admission
// gates all see load. Mutations and slow consumers keep hitting the entry
// peer directly, and -addr defaults to it.
//
// A request shed by the server's admission gate (in-band busy error)
// counts as "busy", not as a failure; any other error fails the run. With
// -metrics set, loadgen scrapes the registry snapshot around every stage
// and, when -check-shed is on (default), verifies the server's shed
// counter delta equals the busy errors the generator observed — the
// accounting cross-check CI gates on (only meaningful while loadgen is the
// peer's sole client).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lang"
	"repro/internal/netpeer"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/rel"
	"repro/internal/swarm"
	"repro/pdms"
)

// config is one loadgen run's parameters.
type config struct {
	addr        string
	metricsURL  string
	qps         []float64
	duration    time.Duration
	conns       int
	seed        int
	mutateEvery int
	pred        string
	addPred     string
	evalSrc     string
	evalCQ      lang.CQ
	slow        int
	slowPerRow  time.Duration
	checkShed   bool
	out         string

	// swarmManifest switches the read ops to full distributed queries
	// against a served swarm (cmd/swarm): each read reformulates the
	// swarm's entry query at a local mediator and executes it across the
	// swarm's peers, so the admission gates of *every* peer on the
	// reformulation paths see load, not just the front door's. Mutations
	// and slow consumers keep targeting the entry peer directly.
	swarmManifest string
	swarmQuery    string
	swarmMed      *pdms.Network
	swarmExec     *netpeer.Executor
}

// opStats summarizes one op class within one stage. Latencies are from the
// scheduled fire time (open loop), for admitted (successful) ops only.
type opStats struct {
	Ops    uint64  `json:"ops"`
	OK     uint64  `json:"ok"`
	Busy   uint64  `json:"busy"`
	Errors uint64  `json:"errors"`
	P50ms  float64 `json:"p50_ms"`
	P99ms  float64 `json:"p99_ms"`
	P999ms float64 `json:"p999_ms"`
}

// serverDelta is the change in the server's own counters across one stage,
// scraped from /metrics (absent when -metrics is not set).
type serverDelta struct {
	Requests      uint64  `json:"requests"`
	Shed          uint64  `json:"shed"`
	ReadErrors    uint64  `json:"read_errors"`
	RequestP99ms  float64 `json:"request_p99_ms"`
	QueueWaitP99s float64 `json:"queue_wait_p99_ms"`
}

// stageResult is one offered-QPS point of the latency curve.
type stageResult struct {
	OfferedQPS  float64      `json:"offered_qps"`
	DurationS   float64      `json:"duration_s"`
	AchievedQPS float64      `json:"achieved_qps"`
	Query       opStats      `json:"query"`
	Mutation    opStats      `json:"mutation"`
	Server      *serverDelta `json:"server,omitempty"`
}

// report is the emitted JSON report: one stageResult per offered-QPS stage.
type report struct {
	Bench       int           `json:"bench"`
	Addr        string        `json:"addr"`
	ReadOp      string        `json:"read_op"` // "scan <pred>" or "eval <query>"
	Conns       int           `json:"conns"`
	Seed        int           `json:"seed"`
	MutateEvery int           `json:"mutate_every"`
	Slow        int           `json:"slow_consumers"`
	Stages      []stageResult `json:"stages"`
	TotalBusy   uint64        `json:"total_busy"`
	ShedDelta   uint64        `json:"server_shed_delta,omitempty"`
	ShedMatch   *bool         `json:"shed_accounting_ok,omitempty"`
}

func main() {
	var cfg config
	var qpsList string
	flag.StringVar(&cfg.addr, "addr", "", "peer protocol address to load (required)")
	flag.StringVar(&cfg.metricsURL, "metrics", "", "peerd /metrics URL to scrape around stages; empty = no server-side deltas")
	flag.StringVar(&qpsList, "qps", "100,200,400", "comma-separated offered-QPS stages")
	flag.DurationVar(&cfg.duration, "duration", 3*time.Second, "duration of each stage")
	flag.IntVar(&cfg.conns, "conns", 32, "client connections (concurrent in-flight cap on the generator side)")
	flag.IntVar(&cfg.seed, "seed", 2000, "rows to insert into -pred before the stages (the scanned working set)")
	flag.IntVar(&cfg.mutateEvery, "mutate-every", 10, "every Nth op is a mutation (add); 0 = queries only")
	flag.StringVar(&cfg.pred, "pred", "bench.data", "relation queried (scanned) by the read ops and seeded by -seed")
	flag.StringVar(&cfg.addPred, "add-pred", "bench.writes", "relation the mutation ops insert into")
	flag.StringVar(&cfg.evalSrc, "eval", "", "conjunctive query for the read ops (e.g. 'q(x, z) :- bench.data(x, y), bench.data(y, z)'); empty = scan -pred. Eval load costs the server a join but the client almost nothing, so an open-loop generator sharing a box with its server can still drive it past saturation")
	flag.IntVar(&cfg.slow, "slow", 0, "slow consumers: connections streaming a scan of -pred while stalling")
	flag.DurationVar(&cfg.slowPerRow, "slow-ms", 2*time.Millisecond, "per-row stall of each slow consumer")
	flag.BoolVar(&cfg.checkShed, "check-shed", true, "with -metrics: fail unless the server's shed delta equals observed busy errors")
	flag.StringVar(&cfg.out, "out", "", "write the JSON report here (always printed to stdout)")
	flag.StringVar(&cfg.swarmManifest, "swarm", "", "manifest written by cmd/swarm: read ops become full distributed queries across the served swarm; -addr defaults to the swarm's entry peer")
	flag.Parse()
	if cfg.swarmManifest != "" {
		m, spec, err := swarm.LoadManifest(cfg.swarmManifest)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(2)
		}
		if cfg.evalSrc != "" {
			fmt.Fprintln(os.Stderr, "loadgen: -eval and -swarm are mutually exclusive (the swarm's entry query is the read op)")
			os.Exit(2)
		}
		med, err := pdms.Load(spec.Mediator)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: loading swarm mediator:", err)
			os.Exit(2)
		}
		exec := netpeer.NewExecutor()
		for _, a := range m.Addrs {
			if err := exec.Discover(a); err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: discovering swarm peer %s: %v\n", a, err)
				os.Exit(2)
			}
		}
		defer exec.Close()
		cfg.swarmQuery, cfg.swarmMed, cfg.swarmExec = m.Query, med, exec
		if cfg.addr == "" {
			cfg.addr = m.Entry
		}
	}
	if cfg.addr == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -addr is required")
		os.Exit(2)
	}
	if cfg.evalSrc != "" {
		q, err := parser.ParseQuery(cfg.evalSrc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: bad -eval query: %v\n", err)
			os.Exit(2)
		}
		cfg.evalCQ = q
	}
	for _, f := range strings.Split(qpsList, ",") {
		q, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || q <= 0 {
			fmt.Fprintf(os.Stderr, "loadgen: bad -qps entry %q\n", f)
			os.Exit(2)
		}
		cfg.qps = append(cfg.qps, q)
	}

	rep, err := run(cfg)
	if rep != nil {
		blob, jerr := json.MarshalIndent(rep, "", "  ")
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(blob))
		if cfg.out != "" {
			if werr := os.WriteFile(cfg.out, append(blob, '\n'), 0o644); werr != nil {
				fmt.Fprintln(os.Stderr, "loadgen:", werr)
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// scrape fetches one registry snapshot from the /metrics endpoint.
func scrape(url string) (obs.SnapshotData, error) {
	var snap obs.SnapshotData
	resp, err := http.Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("scraping %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("scraping %s: %w", url, err)
	}
	return snap, nil
}

// percentiles extracts the quantiles of a finished histogram in
// milliseconds (via a throwaway registry snapshot, which owns the
// bucket-to-quantile estimation).
func percentiles(h *obs.Histogram) (p50, p99, p999 float64) {
	reg := obs.NewRegistry()
	reg.RegisterHistogram("h", h)
	hs := reg.Snapshot().Histograms["h"]
	return hs.P50 * 1000, hs.P99 * 1000, hs.P999 * 1000
}

// run executes the configured load and assembles the report. The returned
// report is non-nil even for failed runs that got far enough to measure.
func run(cfg config) (*report, error) {
	// The connection pool channel holds idle clients; a nil entry is a
	// free slot that the borrower fills by dialing (lazily replacing
	// broken connections).
	clients := make(chan *netpeer.Client, cfg.conns)
	for i := 0; i < cfg.conns; i++ {
		clients <- nil
	}
	defer func() {
		for i := 0; i < cfg.conns; i++ {
			if c := <-clients; c != nil {
				c.Close()
			}
		}
	}()

	// Seed the scanned working set.
	if cfg.seed > 0 {
		c, err := netpeer.Dial(cfg.addr)
		if err != nil {
			return nil, fmt.Errorf("seeding: %w", err)
		}
		const batch = 200
		rows := make([][]string, 0, batch)
		for i := 0; i < cfg.seed; i++ {
			rows = append(rows, []string{fmt.Sprintf("seed%06d", i), fmt.Sprintf("v%d", i)})
			if len(rows) == batch || i == cfg.seed-1 {
				if _, err := c.Add(cfg.pred, rows); err != nil {
					c.Close()
					return nil, fmt.Errorf("seeding %s: %w", cfg.pred, err)
				}
				rows = rows[:0]
			}
		}
		c.Close()
	}

	// Slow consumers: stream scans with a per-row stall until told to
	// stop. A slow consumer's scan competes for admission slots like any
	// other request, so when it is shed its busy error feeds the same
	// accounting total as the measured ops — and all consumers must be
	// stopped before the final metrics scrape, or a shed racing the scrape
	// would break the reconciliation.
	//
	// They scan a dedicated relation sized past the loopback socket
	// buffers: pinning a slot requires the *server's* writes to block on
	// the stalled reader, and a working set that fits in the kernel's
	// buffering streams out instantly no matter how slowly the client
	// reads it.
	var totalBusy atomic.Uint64
	slowPred := cfg.pred + ".slowset"
	if cfg.slow > 0 {
		const slowRows, slowPayload = 12000, 256
		c, err := netpeer.Dial(cfg.addr)
		if err != nil {
			return nil, fmt.Errorf("seeding slow set: %w", err)
		}
		payload := string(make([]byte, slowPayload))
		rows := make([][]string, 0, 200)
		for i := 0; i < slowRows; i++ {
			rows = append(rows, []string{fmt.Sprintf("slow%06d", i), payload})
			if len(rows) == cap(rows) || i == slowRows-1 {
				if _, err := c.Add(slowPred, rows); err != nil {
					c.Close()
					return nil, fmt.Errorf("seeding %s: %w", slowPred, err)
				}
				rows = rows[:0]
			}
		}
		c.Close()
	}
	stopSlow := make(chan struct{})
	var slowWG sync.WaitGroup
	for i := 0; i < cfg.slow; i++ {
		slowWG.Add(1)
		go func() {
			defer slowWG.Done()
			for {
				select {
				case <-stopSlow:
					return
				default:
				}
				c, err := netpeer.Dial(cfg.addr)
				if err != nil {
					return
				}
				err = c.ScanStream(slowPred, func(rel.Tuple) error {
					select {
					case <-stopSlow:
						return errors.New("loadgen: slow consumer stopped")
					case <-time.After(cfg.slowPerRow):
						return nil
					}
				})
				c.Close()
				if errors.Is(err, netpeer.ErrBusy) {
					totalBusy.Add(1)
					time.Sleep(5 * time.Millisecond)
				}
			}
		}()
	}
	var stopOnce sync.Once
	stopSlowConsumers := func() {
		stopOnce.Do(func() {
			close(stopSlow)
			slowWG.Wait()
		})
	}
	defer stopSlowConsumers()

	readOp := "scan " + cfg.pred
	if cfg.evalSrc != "" {
		readOp = "eval " + cfg.evalSrc
	}
	if cfg.swarmMed != nil {
		readOp = "swarm " + cfg.swarmQuery
	}
	rep := &report{
		Bench: 9, Addr: cfg.addr, ReadOp: readOp, Conns: cfg.conns, Seed: cfg.seed,
		MutateEvery: cfg.mutateEvery, Slow: cfg.slow,
	}
	var baseline obs.SnapshotData
	haveMetrics := cfg.metricsURL != ""
	if haveMetrics {
		var err error
		if baseline, err = scrape(cfg.metricsURL); err != nil {
			return nil, err
		}
	}
	runBaseline := baseline

	var opSeq atomic.Uint64
	for _, qps := range cfg.qps {
		st, err := runStage(cfg, clients, qps, &opSeq, &totalBusy)
		if err != nil {
			return rep, err
		}
		if haveMetrics {
			after, err := scrape(cfg.metricsURL)
			if err != nil {
				return rep, err
			}
			st.Server = &serverDelta{
				Requests:      after.Counters["server.requests"] - baseline.Counters["server.requests"],
				Shed:          after.Counters["server.shed"] - baseline.Counters["server.shed"],
				ReadErrors:    after.Counters["server.read_errors"] - baseline.Counters["server.read_errors"],
				RequestP99ms:  after.Histograms["server.request_seconds"].P99 * 1000,
				QueueWaitP99s: after.Histograms["server.queue_wait_seconds"].P99 * 1000,
			}
			baseline = after
		}
		rep.Stages = append(rep.Stages, st)
	}

	stopSlowConsumers()
	rep.TotalBusy = totalBusy.Load()
	if haveMetrics {
		final, err := scrape(cfg.metricsURL)
		if err != nil {
			return rep, err
		}
		rep.ShedDelta = final.Counters["server.shed"] - runBaseline.Counters["server.shed"]
		if cfg.checkShed {
			match := rep.ShedDelta == rep.TotalBusy
			rep.ShedMatch = &match
			if !match {
				return rep, fmt.Errorf("shed accounting mismatch: server shed %d, loadgen observed %d busy errors", rep.ShedDelta, rep.TotalBusy)
			}
		}
	}
	return rep, nil
}

// runStage fires one offered-QPS stage and collects its statistics.
func runStage(cfg config, clients chan *netpeer.Client, qps float64, opSeq, totalBusy *atomic.Uint64) (stageResult, error) {
	interval := time.Duration(float64(time.Second) / qps)
	n := int(cfg.duration / interval)
	if n < 1 {
		n = 1
	}
	queryHist, mutHist := obs.NewHistogram(), obs.NewHistogram()
	var query, mutation opStats
	var mu sync.Mutex // guards query and mutation
	var firstErr atomic.Value

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		fire := start.Add(time.Duration(i) * interval)
		if d := time.Until(fire); d > 0 {
			time.Sleep(d)
		}
		seq := opSeq.Add(1)
		mutate := cfg.mutateEvery > 0 && seq%uint64(cfg.mutateEvery) == 0
		wg.Add(1)
		go func(fire time.Time, seq uint64, mutate bool) {
			defer wg.Done()
			var err error
			if !mutate && cfg.swarmMed != nil {
				// Swarm read: reformulate-and-execute across the peers via
				// the shared executor (its pools multiplex connections; no
				// client borrow).
				_, err = cfg.swarmMed.QueryVia(cfg.swarmQuery, cfg.swarmExec)
			} else {
				c := <-clients
				if c == nil {
					if c, err = netpeer.Dial(cfg.addr); err != nil {
						clients <- nil
						firstErr.CompareAndSwap(nil, fmt.Errorf("dial: %w", err))
						return
					}
				}
				switch {
				case mutate:
					_, err = c.Add(cfg.addPred, [][]string{{fmt.Sprintf("w%09d", seq), "x"}})
				case cfg.evalSrc != "":
					_, err = c.Eval(cfg.evalCQ)
				default:
					_, err = c.Scan(cfg.pred)
				}
				if c.Broken() {
					c.Close()
					c = nil
				}
				clients <- c
			}
			elapsed := time.Since(fire) // open loop: from the scheduled fire time

			st, h := &query, queryHist
			if mutate {
				st, h = &mutation, mutHist
			}
			mu.Lock()
			st.Ops++
			switch {
			case err == nil:
				st.OK++
				h.Observe(elapsed)
			case errors.Is(err, netpeer.ErrBusy):
				st.Busy++
				totalBusy.Add(1)
			default:
				st.Errors++
				firstErr.CompareAndSwap(nil, err)
			}
			mu.Unlock()
		}(fire, seq, mutate)
	}
	wg.Wait()
	elapsed := time.Since(start)

	query.P50ms, query.P99ms, query.P999ms = percentiles(queryHist)
	mutation.P50ms, mutation.P99ms, mutation.P999ms = percentiles(mutHist)
	st := stageResult{
		OfferedQPS:  qps,
		DurationS:   elapsed.Seconds(),
		AchievedQPS: float64(query.OK+mutation.OK) / elapsed.Seconds(),
		Query:       query,
		Mutation:    mutation,
	}
	if err, _ := firstErr.Load().(error); err != nil {
		return st, fmt.Errorf("stage %.0f qps: %w", qps, err)
	}
	return st, nil
}
