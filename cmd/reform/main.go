// Command reform reformulates queries against a PPL specification and
// optionally executes them over the facts in the file.
//
// Usage:
//
//	reform [-exec] [-first n] [-q 'q(x) :- A:R(x)'] spec.ppl
//
// Queries come from -q or from `query` statements in the specification.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/parser"
)

func main() {
	exec := flag.Bool("exec", false, "execute the reformulated query over the facts in the file")
	first := flag.Int("first", 0, "stop after n rewritings (0 = all)")
	tree := flag.Bool("tree", false, "print the rule-goal tree (Figure 2 style)")
	queryArg := flag.String("q", "", "query to reformulate (overrides query statements in the file)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: reform [-exec] [-tree] [-first n] [-q query] spec.ppl")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *queryArg, *exec, *first, *tree); err != nil {
		fmt.Fprintln(os.Stderr, "reform:", err)
		os.Exit(1)
	}
}

func run(path, queryArg string, exec bool, first int, tree bool) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	res, err := parser.Parse(string(src))
	if err != nil {
		return fmt.Errorf("%s:%w", path, err)
	}
	queries := res.Queries
	if queryArg != "" {
		q, err := parser.ParseQuery(queryArg)
		if err != nil {
			return err
		}
		queries = []lang.CQ{q}
	}
	if len(queries) == 0 {
		return fmt.Errorf("no queries (use -q or add `query` statements to %s)", path)
	}
	r, err := core.New(res.PDMS, core.Options{MaxRewritings: first})
	if err != nil {
		return err
	}
	eng := engine.New(res.Data)
	for i, q := range queries {
		fmt.Printf("query %d: %s\n", i+1, q)
		if tree {
			txt, err := r.ExplainTree(q, 0)
			if err != nil {
				return err
			}
			fmt.Println("rule-goal tree:")
			fmt.Print(txt)
		}
		start := time.Now()
		out, err := r.Reformulate(q)
		if err != nil {
			return err
		}
		dur := time.Since(start)
		fmt.Printf("  classification: %s\n", out.Classification)
		fmt.Printf("  tree: %d nodes (%d goal, %d rule), %d pruned, %d memo hits, %d dead ends, %d recursion cuts\n",
			out.Stats.Nodes(), out.Stats.GoalNodes, out.Stats.RuleNodes,
			out.Stats.PrunedUnsat, out.Stats.MemoHits, out.Stats.DeadEnds, out.Stats.RecursionCuts)
		fmt.Printf("  rewritings: %d (in %v)\n", out.UCQ.Len(), dur)
		for _, d := range out.UCQ.Disjuncts {
			fmt.Printf("    %s\n", d)
		}
		if exec {
			rows, err := eng.EvalUCQ(out.UCQ)
			if err != nil {
				return err
			}
			fmt.Printf("  answers: %d\n", len(rows))
			for _, t := range rows {
				fmt.Printf("    %s\n", t)
			}
		}
	}
	return nil
}
