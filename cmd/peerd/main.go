// Command peerd runs one peer's storage server: it loads the facts from a
// PPL specification file and serves the stored relations over the TCP
// peer protocol (see internal/wire: binary frames whose first row is the
// envelope and whose other rows are the frame's rows), which the
// distributed executor consumes.
//
// Usage:
//
//	peerd -addr 127.0.0.1:7410 spec.ppl
//
// With -http an operational endpoint is served alongside the peer
// protocol:
//
//	/metrics        unified counter/gauge/histogram snapshot, JSON by
//	                default, Prometheus text with ?format=prometheus
//	/debug/traces   recent request trace trees (?n= caps the count,
//	                ?sample= adjusts the 1-in-N sampling knob)
//	/debug/pprof/   the standard runtime profiles
//
// Diagnostics are structured log records (slog), text by default and JSON
// with -log-format json. peerd serves until interrupted.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/netpeer"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/store"
)

// traceRingSize bounds the finished request traces kept for /debug/traces.
const traceRingSize = 64

// Operational HTTP server timeouts. Package vars (not consts) so the
// slow-loris regression test can shorten them: without a ReadHeaderTimeout
// one client that dribbles header bytes pins an http goroutine forever,
// and without an IdleTimeout abandoned keep-alive connections accumulate.
var (
	httpReadHeaderTimeout = 5 * time.Second
	httpIdleTimeout       = 60 * time.Second
)

// options is the command-line configuration of one peerd run.
type options struct {
	addr        string
	httpAddr    string // "" leaves the operational endpoint off
	dataDir     string // "" keeps the stored relations purely in memory
	logFormat   string // "text" or "json"
	traceSample int
	maxInflight int           // 0 disables admission control
	maxQueue    int           // admission wait-queue depth
	queueWait   time.Duration // max admission queue wait
	drainWait   time.Duration // graceful-drain bound on shutdown
}

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", "127.0.0.1:0", "peer protocol listen address")
	flag.StringVar(&opts.httpAddr, "http", "", "operational HTTP listen address (/metrics, /debug/traces, /debug/pprof); empty = disabled")
	flag.StringVar(&opts.dataDir, "data", "", "segment directory for durable stored relations: replayed on startup, journaled while serving, flushed+fsynced on shutdown; empty = in-memory only")
	flag.StringVar(&opts.logFormat, "log-format", "text", "log record format: text or json")
	flag.IntVar(&opts.traceSample, "trace-sample", 1, "trace knob: >0 honors and records callers' traced requests, 0 disables server-side tracing")
	flag.IntVar(&opts.maxInflight, "max-inflight", 0, "admission control: max requests executing concurrently, 0 = unlimited (admission off)")
	flag.IntVar(&opts.maxQueue, "max-queue", 0, "admission control: wait-queue depth beyond -max-inflight before requests are shed busy")
	flag.DurationVar(&opts.queueWait, "queue-wait", 0, "admission control: max time a request waits in the queue before being shed (0 = built-in default)")
	flag.DurationVar(&opts.drainWait, "drain", 5*time.Second, "graceful shutdown: time to let in-flight and queued requests finish before closing connections")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: peerd [-addr host:port] [-http host:port] [-data dir] [-max-inflight n] [-max-queue n] [-queue-wait d] [-drain d] [-log-format text|json] [-trace-sample n] spec.ppl")
		os.Exit(2)
	}
	d, err := start(flag.Arg(0), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "peerd:", err)
		os.Exit(1)
	}
	defer d.close()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	d.log.Info("shutting down", "drain", opts.drainWait)
	// Graceful drain before close(): stop accepting, let in-flight and
	// queued requests finish (bounded by -drain), then the usual teardown
	// flushes the segment store.
	if err := d.srv.Drain(opts.drainWait); err != nil {
		d.log.Error("drain", "err", err)
	}
}

// daemon is one running peerd: the peer server plus, when configured, the
// operational HTTP front door.
type daemon struct {
	srv   *netpeer.Server
	bound string // bound peer-protocol address

	registry *obs.Registry
	tracer   *obs.Tracer

	httpAddr string // bound HTTP address ("" when disabled)
	httpSrv  *http.Server

	// store is the durable segment journal (-data); nil when in-memory.
	store *store.Dir

	log *slog.Logger
}

func newLogger(format string) *slog.Logger {
	if format == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// start loads the spec and brings up the peer server and, when opts.httpAddr
// is set, the operational endpoint.
func start(path string, opts options) (*daemon, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res, err := parser.Parse(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s:%w", path, err)
	}

	d := &daemon{
		registry: obs.NewRegistry(),
		tracer:   obs.NewTracer(traceRingSize),
		log:      newLogger(opts.logFormat),
	}

	// With -data, the served instance is the segment journal's: what is on
	// disk replayed, with the spec's facts merged on top (journaled,
	// deduplicated against the recovered data).
	data := res.Data
	if opts.dataDir != "" {
		replayStart := time.Now()
		var recs []store.RelRecovery
		data, d.store, recs, err = store.OpenInstance(opts.dataDir, res.Data)
		if err != nil {
			return nil, err
		}
		// Parse checked the spec's facts; the replayed rows were written
		// under whatever spec the directory had before.
		if err := res.PDMS.CheckStored(data); err != nil {
			return nil, errors.Join(err, d.store.Close())
		}
		for _, rec := range recs {
			d.log.Info("recovered relation", "pred", rec.Pred,
				"tuples", rec.Tuples, "gen", rec.Gen,
				"segments", rec.Segments, "truncated_bytes", rec.TruncatedBytes)
		}
		d.log.Info("segment replay complete", "dir", opts.dataDir,
			"relations", len(recs), "elapsed", time.Since(replayStart))
	}

	d.srv = netpeer.NewServer(data)
	// Rows written over the wire meet the same storage comparisons as the
	// spec's facts and the replayed journal.
	d.srv.CheckRow = res.PDMS.CheckFact
	d.tracer.SetSampleEvery(opts.traceSample)
	d.srv.Logger = d.log.With("component", "server")
	d.srv.Tracer = d.tracer
	d.srv.MaxInflight = opts.maxInflight
	d.srv.MaxQueue = opts.maxQueue
	d.srv.QueueWait = opts.queueWait
	d.srv.RegisterMetrics(d.registry)
	if d.store != nil {
		d.store.RegisterMetrics(d.registry)
	}

	bound, err := d.srv.Start(opts.addr)
	if err != nil {
		d.close() // the journal may hold unflushed frames of the spec's facts
		return nil, err
	}
	d.bound = bound
	d.log.Info("serving", "addr", bound,
		"relations", len(data.Relations()), "facts", data.Size())
	for _, pred := range data.Relations() {
		d.log.Info("relation", "pred", pred, "tuples", data.Relation(pred).Len())
	}

	if opts.httpAddr != "" {
		lis, err := net.Listen("tcp", opts.httpAddr)
		if err != nil {
			d.close()
			return nil, err
		}
		d.httpAddr = lis.Addr().String()
		d.httpSrv = &http.Server{
			Handler: handler(d.registry, d.tracer),
			// Without these a single slow-loris client (or an abandoned
			// keep-alive connection) pins an http goroutine forever.
			ReadHeaderTimeout: httpReadHeaderTimeout,
			IdleTimeout:       httpIdleTimeout,
		}
		go d.httpSrv.Serve(lis)
		d.log.Info("operational endpoint", "addr", d.httpAddr)
	}
	return d, nil
}

func (d *daemon) close() {
	if d.httpSrv != nil {
		d.httpSrv.Close()
	}
	d.srv.Close()
	if d.store != nil {
		// Graceful shutdown: push every buffered frame to disk and fsync
		// the open tail segments before the process exits, so a clean stop
		// replays without truncation.
		if err := d.store.Close(); err != nil {
			d.log.Error("segment flush failed", "err", err)
		} else {
			d.log.Info("segments flushed and synced")
		}
	}
}
