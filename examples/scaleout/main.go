// Scaleout: the storage scale-out walkthrough described in README.md. It
// builds a sharded relation store (default one million rows), runs the same
// queries over the unsharded and the sharded layout, and prints the engine
// counters. Flags: -rows sets the store size, -shards the shard count
// (0 = one per CPU). The paper's Figure 3/4 sweeps are cmd/figures.
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rel"
)

func main() {
	rows := flag.Int("rows", 1_000_000, "rows in the sharded store walkthrough")
	shards := flag.Int("shards", 0, "shard count (0 = one per CPU)")
	flag.Parse()
	shardedStoreWalkthrough(*rows, *shards)
}

// buildStore loads n synthetic order rows into an instance with the given
// shard count: orders(order_id, customer, region) plus a small regions
// dimension table.
func buildStore(n, shards int) *rel.Instance {
	ins := rel.NewInstanceSharded(shards)
	for i := 0; i < n; i++ {
		ins.MustAdd("orders",
			fmt.Sprintf("o%08d", i),
			fmt.Sprintf("cust%d", i%(n/10+1)),
			fmt.Sprintf("region%d", i%64))
	}
	for i := 0; i < 64; i++ {
		ins.MustAdd("regions", fmt.Sprintf("region%d", i), fmt.Sprintf("zone%d", i%4))
	}
	return ins
}

func shardedStoreWalkthrough(n, shards int) {
	if n < 100 {
		log.Fatalf("-rows %d: need at least 100 rows for the walkthrough's 1%% cutoff and probe keys", n)
	}
	if shards <= 0 {
		shards = rel.DefaultShards()
	}
	fmt.Printf("sharded store walkthrough: %d rows, GOMAXPROCS=%d\n", n, runtime.GOMAXPROCS(0))

	// The filtered scan every layout runs: the 1% of orders below the id
	// cutoff. A single-atom body keeps the planner from starting at the
	// tiny dimension table, so the full scan of orders — the part that
	// fans out across shards — is what is measured. (The planner would
	// otherwise scan `regions` first and probe orders, correctly: small
	// relations are cheap openings. Statistics pick plans, not you.)
	cutoff := fmt.Sprintf("o%08d", n/100)
	q := lang.CQ{
		Head: lang.NewAtom("q", lang.Var("o"), lang.Var("r")),
		Body: []lang.Atom{
			lang.NewAtom("orders", lang.Var("o"), lang.Var("c"), lang.Var("r")),
		},
		Comps: []lang.Comparison{{Op: lang.OpLT, L: lang.Var("o"), R: lang.Const(cutoff)}},
	}
	// A bound-key probe batch, the server-side shape of a bind-join.
	keys := make([][]string, 0, 10000)
	for i := 0; i < 10000; i++ {
		keys = append(keys, []string{fmt.Sprintf("o%08d", i*7%n)})
	}

	for _, nsh := range dedupInts(1, shards) {
		start := time.Now()
		ins := buildStore(n, nsh)
		loaded := time.Since(start)
		e := engine.New(ins)

		start = time.Now()
		ans, err := e.EvalCQ(q)
		if err != nil {
			log.Fatal(err)
		}
		scanned := time.Since(start)

		start = time.Now()
		probed := 0
		if err := e.ProbeByKeyBatchYield("orders", []int{0}, keys, func(rel.Tuple) error {
			probed++
			return nil
		}); err != nil {
			log.Fatal(err)
		}
		probeTime := time.Since(start)

		orders := ins.Relation("orders")
		shardRows := make([]int, orders.NumShards())
		for s := range shardRows {
			shardRows[s] = orders.ShardLen(s)
		}
		reg := obs.NewRegistry()
		e.RegisterMetrics(reg)
		est := reg.Snapshot().Counters
		fmt.Printf("\n  shards=%d\n", nsh)
		fmt.Printf("    load: %v   filtered scan: %v (%d answers)   probe 10k keys: %v (%d hits)\n",
			loaded.Round(time.Millisecond), scanned.Round(time.Millisecond), len(ans),
			probeTime.Round(time.Millisecond), probed)
		fmt.Printf("    engine counters: probes=%d scans=%d parallel-scans=%d indexes=%d plans=%d\n",
			est["engine.probes"], est["engine.scans"], est["engine.parallel_scans"],
			est["engine.indexes_built"], est["engine.plans_compiled"])
		fmt.Printf("    orders: rows=%d shard-rows=%v\n", orders.Len(), shardRows)
	}
}

// dedupInts returns its arguments with consecutive duplicates removed (so
// shards=1 machines print the walkthrough once).
func dedupInts(vals ...int) []int {
	var out []int
	for _, v := range vals {
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}
