// Command swarm boots one in-process many-peer topology (internal/swarm) —
// a loopback netpeer server per peer — and keeps it up for an external
// driver, cmd/loadgen -swarm:
//
//	swarm -peers 64 -topology chain -max-inflight 16 -max-queue 64 \
//	      -manifest /tmp/swarm.json
//
// The manifest hands the generation parameters (the spec is deterministic,
// so the driver regenerates it), the peer addresses and the entry query to
// the driver; the process then blocks until SIGINT/SIGTERM. Measuring a
// swarm is cmd/bench's job (the adhoc_swarm workload); the pruning and
// oracle gates are internal/swarm's tests.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/swarm"
)

func main() {
	var (
		p        swarm.Params
		bc       swarm.BootConfig
		topology = flag.String("topology", "chain", "topology (chain, star, smallworld)")
		manifest = flag.String("manifest", "", "write the handoff manifest here (required)")
	)
	flag.Int64Var(&p.Seed, "seed", 10, "generation seed (same seed ⇒ same swarm, byte for byte)")
	flag.IntVar(&p.Peers, "peers", 64, "peer count")
	flag.IntVar(&p.QueryLen, "query-len", 1, "entry-query chain length")
	flag.IntVar(&bc.MaxInflight, "max-inflight", 0, "per-peer admission cap on concurrently executing requests (0 = admission control off)")
	flag.IntVar(&bc.MaxQueue, "max-queue", 0, "per-peer admission queue length beyond the in-flight cap")
	flag.DurationVar(&bc.QueueWait, "queue-wait", 0, "per-request admission-queue wait bound (0 = server default)")
	flag.Parse()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var err error
	if p.Topology, err = swarm.ParseTopology(*topology); err == nil {
		err = serve(p, bc, *manifest, stop)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "swarm:", err)
		os.Exit(1)
	}
}

// serve boots the swarm p describes with the given admission settings,
// writes the handoff manifest, and blocks until stop delivers or closes;
// every server and connection is shut down before it returns.
func serve(p swarm.Params, bc swarm.BootConfig, manifest string, stop <-chan os.Signal) error {
	if manifest == "" {
		return fmt.Errorf("-manifest is required")
	}
	spec, err := swarm.Generate(p)
	if err != nil {
		return err
	}
	n, err := swarm.BootWithConfig(spec, bc)
	if err != nil {
		return err
	}
	defer n.Close()
	if err := n.Manifest().WriteManifest(manifest); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "swarm: serving %d %s peers (depth %d), entry %s, manifest %s\n",
		spec.Params.Peers, spec.Params.Topology, spec.Depth, n.Addrs[0], manifest)
	<-stop
	fmt.Fprintln(os.Stderr, "swarm: shutting down")
	return nil
}
