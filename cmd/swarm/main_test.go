package main

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/netpeer"
	"repro/internal/swarm"
	"repro/pdms"
)

// TestServeHandsOffAndStops drives the command's one job the way
// cmd/loadgen -swarm uses it: serve an admission-limited chain, read the
// manifest it wrote, answer the entry query across the served peers, then
// stop it and find no server goroutine left behind.
func TestServeHandsOffAndStops(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "swarm.json")
	p := swarm.Params{Peers: 4, Topology: swarm.Chain, Seed: 10}
	bc := swarm.BootConfig{MaxInflight: 2, MaxQueue: 4, QueueWait: 50 * time.Millisecond}
	stop := make(chan os.Signal)
	done := make(chan error, 1)
	go func() { done <- serve(p, bc, manifest, stop) }()

	// The manifest is written only after every peer is up.
	var m swarm.Manifest
	var spec *swarm.Spec
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var err error
		if m, spec, err = swarm.LoadManifest(manifest); err == nil {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("serve returned early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no readable manifest: %v", err)
		}
	}
	want, err := swarm.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Params, want.Params) || m.Query != want.Query || len(m.Addrs) != 4 || m.Entry != m.Addrs[0] {
		t.Fatalf("manifest does not round-trip: %+v", m)
	}
	if spec.Mediator != want.Mediator || !reflect.DeepEqual(spec.Facts, want.Facts) {
		t.Fatal("spec regenerated from the manifest differs from the served one")
	}

	med, err := pdms.Load(spec.Mediator)
	if err != nil {
		t.Fatal(err)
	}
	exec := netpeer.NewExecutor()
	for _, a := range m.Addrs {
		if err := exec.Discover(a); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := med.QueryVia(m.Query, exec)
	exec.Close()
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := swarm.OracleAnswers(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || !reflect.DeepEqual(rows, oracle) {
		t.Fatalf("served swarm answers %v, oracle %v", rows, oracle)
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after stop")
	}
	// Server.Close waits for its accept loop and connection goroutines; the
	// only stragglers allowed are the context.AfterFunc callbacks closing
	// already-dead connections, which finish on their own.
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "netpeer.(*Server)") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a peer server goroutine outlived serve:\n%s", stacks)
		}
	}

	if err := serve(p, bc, "", stop); err == nil {
		t.Fatal("serve without a manifest path succeeded")
	}
}
