package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/netpeer"
	"repro/internal/obs"
)

const testSpec = `
storage A.r(x, y) in A:R(x, y)
fact A.r("1", "a")
fact A.r("2", "b")
`

func startTestDaemon(t *testing.T, opts options) *daemon {
	t.Helper()
	spec := filepath.Join(t.TempDir(), "spec.ppl")
	if err := os.WriteFile(spec, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := start(spec, opts)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(d.close)
	return d
}

func get(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body), resp
}

// TestFrontDoor drives a full peerd: serve a spec, answer protocol
// requests, and report them through /metrics (JSON and Prometheus text)
// and /debug/traces.
func TestFrontDoor(t *testing.T) {
	d := startTestDaemon(t, options{addr: "127.0.0.1:0", httpAddr: "127.0.0.1:0", traceSample: 1})
	if d.httpAddr == "" {
		t.Fatal("no HTTP endpoint bound")
	}

	// Generate traffic: a scan plus a traced scan through a client tracer.
	c, err := netpeer.Dial(d.bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.Scan("A.r")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("scan got %d rows, want 2", len(rows))
	}

	base := "http://" + d.httpAddr

	var snap obs.SnapshotData
	body, resp := get(t, base+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, body)
	}
	if snap.Counters["server.requests"] == 0 {
		t.Fatalf("server.requests missing or zero in %v", snap.Counters)
	}
	if snap.Counters["server.rows_served"] != 2 {
		t.Fatalf("server.rows_served = %d, want 2", snap.Counters["server.rows_served"])
	}
	if _, ok := snap.Histograms["server.request_seconds"]; !ok {
		t.Fatal("server.request_seconds histogram missing")
	}
	for _, name := range []string{"engine.scans", "engine.probes"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("engine counter %s missing", name)
		}
	}

	prom, resp := get(t, base+"/metrics?format=prometheus")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("prometheus content type %q", ct)
	}
	for _, want := range []string{"# TYPE server_requests counter", "server_request_seconds_bucket"} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, prom)
		}
	}

	// An untraced request leaves the ring empty; a remote-traced one lands
	// in it and renders through /debug/traces.
	traces, _ := get(t, base+"/debug/traces")
	if !strings.Contains(traces, "no traces recorded") {
		t.Fatalf("expected empty trace ring, got:\n%s", traces)
	}
	ct := obs.NewTracer(4)
	ct.SetSampleEvery(1)
	root := ct.StartTrace("query")
	err = func() error {
		defer root.End()
		c2, err := netpeer.Dial(d.bound)
		if err != nil {
			return err
		}
		defer c2.Close()
		return c2.TraceOn(root).Ping()
	}()
	if err != nil {
		t.Fatal(err)
	}
	traces, _ = get(t, base+"/debug/traces")
	if !strings.Contains(traces, "serve.ping") {
		t.Fatalf("/debug/traces missing served request:\n%s", traces)
	}

	// The sampling knob round-trips through the endpoint.
	get(t, base+"/debug/traces?sample=0")
	if n := d.tracer.SampleEvery(); n != 0 {
		t.Fatalf("sample knob = %d after ?sample=0", n)
	}

	// pprof is mounted.
	get(t, base+"/debug/pprof/cmdline")
}

// TestHTTPSlowLoris verifies the operational HTTP server evicts a client
// that never finishes sending its request headers. Before ReadHeaderTimeout
// was set, this connection pinned an http.Server goroutine forever.
func TestHTTPSlowLoris(t *testing.T) {
	old := httpReadHeaderTimeout
	httpReadHeaderTimeout = 100 * time.Millisecond
	defer func() { httpReadHeaderTimeout = old }()

	d := startTestDaemon(t, options{addr: "127.0.0.1:0", httpAddr: "127.0.0.1:0"})
	conn, err := net.Dial("tcp", d.httpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request: the header section never terminates.
	if _, err := conn.Write([]byte("GET /metrics HTTP/1.1\r\nHost: x\r\nX-Slow: ")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	buf := make([]byte, 1024)
	for {
		if _, err := conn.Read(buf); err != nil {
			break // server closed the connection (possibly after a 408)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("slow-loris connection lived %v, want eviction near the %v header timeout", elapsed, httpReadHeaderTimeout)
	}
	// The endpoint still serves well-behaved clients afterwards.
	get(t, "http://"+d.httpAddr+"/metrics")
}

// TestAdmissionFlags wires -max-inflight/-max-queue through to the peer
// server and checks the admission metrics surface on /metrics.
func TestAdmissionFlags(t *testing.T) {
	d := startTestDaemon(t, options{
		addr: "127.0.0.1:0", httpAddr: "127.0.0.1:0",
		maxInflight: 2, maxQueue: 4, queueWait: 50 * time.Millisecond,
	})
	c, err := netpeer.Dial(d.bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Scan("A.r"); err != nil {
		t.Fatal(err)
	}
	var snap obs.SnapshotData
	body, _ := get(t, "http://"+d.httpAddr+"/metrics")
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"server.shed", "server.accept_retries"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("counter %s missing with admission on: %v", name, snap.Counters)
		}
	}
	for _, name := range []string{"server.inflight", "server.queued"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Fatalf("gauge %s missing with admission on: %v", name, snap.Gauges)
		}
	}
	if _, ok := snap.Histograms["server.queue_wait_seconds"]; !ok {
		t.Fatal("server.queue_wait_seconds histogram missing")
	}
	if n := snap.Counters["server.shed"]; n != 0 {
		t.Fatalf("unexpected shed count %d in idle test", n)
	}
}

// TestHTTPDisabled keeps the front door off without -http.
func TestHTTPDisabled(t *testing.T) {
	d := startTestDaemon(t, options{addr: "127.0.0.1:0", logFormat: "json"})
	if d.httpAddr != "" || d.httpSrv != nil {
		t.Fatalf("HTTP endpoint bound without -http: %q", d.httpAddr)
	}
}

// TestDurableLifecycle drives the -data path end to end: a first daemon
// journals its spec facts and flushes them on close (the SIGTERM path runs
// the same close); a second daemon over the same directory replays them,
// merges an extended spec, serves the union, and exposes storage.* metrics.
func TestDurableLifecycle(t *testing.T) {
	dataDir := t.TempDir()
	d := startTestDaemon(t, options{addr: "127.0.0.1:0", dataDir: dataDir})
	if d.store == nil {
		t.Fatal("-data did not open a segment journal")
	}
	d.close() // graceful shutdown: flush + fsync (idempotent; Cleanup closes again harmlessly)

	// Second life, extended spec: recovered facts + one new one.
	spec := filepath.Join(t.TempDir(), "spec.ppl")
	if err := os.WriteFile(spec, []byte(testSpec+"fact A.r(\"3\", \"c\")\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := start(spec, options{addr: "127.0.0.1:0", httpAddr: "127.0.0.1:0", dataDir: dataDir})
	if err != nil {
		t.Fatalf("restart over %s: %v", dataDir, err)
	}
	defer d2.close()
	c, err := netpeer.Dial(d2.bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.Scan("A.r")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("scan after recovery got %d rows, want 3", len(rows))
	}

	var snap obs.SnapshotData
	body, _ := get(t, "http://"+d2.httpAddr+"/metrics")
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["storage.recovered_tuples"] != 2 {
		t.Fatalf("storage.recovered_tuples = %d, want 2", snap.Counters["storage.recovered_tuples"])
	}
	if _, ok := snap.Gauges["storage.replay_micros"]; !ok {
		t.Fatalf("storage.replay_micros gauge missing: %v", snap.Gauges)
	}
}

// TestFailedDurableStartClosesJournal: a -data start that fails after the
// journal was opened — the spec's facts disagree with a recovered relation's
// arity, or the peer address cannot be bound — must close the segment files
// the fact merge opened and leave the directory startable.
func TestFailedDurableStartClosesJournal(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	writeSpec := func(src string) string {
		path := filepath.Join(t.TempDir(), "spec.ppl")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	dataDir := t.TempDir()
	d, err := start(writeSpec(`fact R("a", "b")`), options{addr: "127.0.0.1:0", dataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	d.close()

	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	before := openFDs()
	// Facts merge in relation-name order: A.new journals first (opening a
	// segment), then R's arity disagrees with the recovered R/2.
	if _, err := start(writeSpec("fact A.new(\"x\")\nfact R(\"only\")"), options{addr: "127.0.0.1:0", dataDir: dataDir}); err == nil {
		t.Fatal("start with an arity-mismatched fact succeeded")
	}
	if _, err := start(writeSpec(`fact B.new("y")`), options{addr: taken.Addr().String(), dataDir: dataDir}); err == nil {
		t.Fatal("start on a bound address succeeded")
	}
	if after := openFDs(); after != before {
		t.Fatalf("failed starts left %d file descriptors open", after-before)
	}

	d2, err := start(writeSpec(`fact R("c", "d")`), options{addr: "127.0.0.1:0", dataDir: dataDir})
	if err != nil {
		t.Fatalf("start after failed starts: %v", err)
	}
	c, err := netpeer.Dial(d2.bound)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.Scan("R")
	c.Close()
	if err != nil || len(rows) != 2 {
		t.Fatalf("scan after failed starts: %d rows, err %v; want 2", len(rows), err)
	}
	d2.close()
	if err := d2.store.Err(); err != nil {
		t.Fatalf("journal unhealthy after a clean stop: %v", err)
	}
}
