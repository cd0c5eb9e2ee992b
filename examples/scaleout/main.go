// Scaleout: the storage walkthrough described in README.md. It builds a
// relation store (default one million rows), runs a filtered scan and a
// 10k-key probe batch over it, and prints the engine counters. The -rows flag sets the store size. The paper's
// Figure 3/4 sweeps are cmd/figures.
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
	rows := flag.Int("rows", 1_000_000, "rows in the store walkthrough")
	flag.Parse()
	storeWalkthrough(*rows)
}

// buildStore loads n synthetic order rows into an instance:
// orders(order_id, customer, region) plus a small regions dimension table.
func buildStore(n int) *rel.Instance {
	ins := rel.NewInstance()
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

func storeWalkthrough(n int) {
	if n < 100 {
		log.Fatalf("-rows %d: need at least 100 rows for the walkthrough's 1%% cutoff and probe keys", n)
	}
	fmt.Printf("store walkthrough: %d rows, GOMAXPROCS=%d\n", n, runtime.GOMAXPROCS(0))

	// The filtered scan: the 1% of orders below the id cutoff. A
	// single-atom body keeps the planner from starting at the tiny
	// dimension table, so the full scan of orders is what is measured.
	// (The planner would otherwise scan `regions` first and probe orders,
	// correctly: small relations are cheap openings. Cardinalities pick
	// plans, not you.)
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

	start := time.Now()
	ins := buildStore(n)
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

	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)
	est := reg.Snapshot().Counters
	fmt.Printf("\n    load: %v   filtered scan: %v (%d answers)   probe 10k keys: %v (%d hits)\n",
		loaded.Round(time.Millisecond), scanned.Round(time.Millisecond), len(ans),
		probeTime.Round(time.Millisecond), probed)
	fmt.Printf("    engine counters: probes=%d scans=%d indexes=%d plans=%d\n",
		est["engine.probes"], est["engine.scans"],
		est["engine.indexes_built"], est["engine.plans_compiled"])
	fmt.Printf("    orders: rows=%d\n", ins.Relation("orders").Len())
}
