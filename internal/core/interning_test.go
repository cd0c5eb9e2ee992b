package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/parser"
)

// TestQueryConstantsMeetSpecConstants reformulates queries whose constants
// the specification also mentions — in a definitional head, a view body and
// a comparison bound — from 8 goroutines sharing one Reformulator per
// specification, with queries over constants the specification never
// mentions mixed in. The first must equal their golden entries, which they
// cannot if a query constant is interned apart from the catalog's equal
// one; each of the second must match the same query over a placeholder
// constant, which it cannot if concurrent calls share their own constants.
func TestQueryConstantsMeetSpecConstants(t *testing.T) {
	golden := readGolden(t)
	type check struct {
		r    *core.Reformulator
		q    lang.CQ // nil body: text has a %q for a per-call constant
		text string
		want string
	}
	var checks []check
	for _, ts := range trapSpecs {
		res, err := parser.Parse(ts.spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.New(res.PDMS, core.Options{MaxNodes: 200_000, MaxRewritings: 2_000})
		if err != nil {
			t.Fatal(err)
		}
		for _, text := range ts.queries {
			key := "trap " + ts.label + ": " + text + " | default"
			want, ok := golden[key]
			if !ok {
				t.Fatalf("%s: no golden entry", key)
			}
			checks = append(checks, check{r, mustQuery(t, text), text, want})
		}
		want := canonicalRewritings(t, r, fmt.Sprintf(ts.fresh, "placeholder"))
		checks = append(checks, check{r, lang.CQ{}, ts.fresh, want})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				for _, c := range checks {
					if c.q.Body != nil {
						if got := goldenEntry(c.r, c.q); got != c.want {
							t.Errorf("%s: got\n%swant\n%s", c.text, got, c.want)
						}
						continue
					}
					constant := fmt.Sprintf("c%d-%d", g, round)
					got := canonicalRewritings(t, c.r, fmt.Sprintf(c.text, constant))
					if got = strings.ReplaceAll(got, constant, "placeholder"); got != c.want {
						t.Errorf("%s with %q: got\n%s\nwant\n%s", c.text, constant, got, c.want)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// canonicalRewritings reformulates text and returns its rewritings'
// canonical forms, one a line.
func canonicalRewritings(t *testing.T, r *core.Reformulator, text string) string {
	q, err := parser.ParseQuery(text)
	if err != nil {
		t.Error(err)
		return ""
	}
	res, err := r.Reformulate(q)
	if err != nil {
		t.Error(err)
		return ""
	}
	lines := make([]string, len(res.UCQ.Disjuncts))
	for i, d := range res.UCQ.Disjuncts {
		lines[i] = goldenCanonical(d)
	}
	return strings.Join(lines, "\n")
}
