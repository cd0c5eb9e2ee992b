package swarm

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/rel"
)

// TestSwarmMatchesOracleUnderInterleavedWrites repeats each corpus tuple's
// query through one booted swarm, a write landing on one storing peer
// between repeats. The executor's fragment cache serves the unwritten
// peers' push-downs and fragments unchanged and must refetch the written
// ones: every answer equals the oracle's over the facts written so far,
// and a fresh executor's. The writes chain onto existing values, so the
// answers grow.
func TestSwarmMatchesOracleUnderInterleavedWrites(t *testing.T) {
	for _, p := range corpus(true) {
		p := p
		t.Run(fmt.Sprintf("%s/peers=%d/qlen=%d/seed=%d", p.Topology, p.Peers, p.QueryLen, p.Seed), func(t *testing.T) {
			t.Parallel()
			spec, err := Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			n, err := Boot(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			reg := obs.NewRegistry()
			n.Exec.RegisterMetrics(reg)
			var stored []int
			for i, s := range spec.Stored {
				if s {
					stored = append(stored, i)
				}
			}
			const rounds = 6
			var first, last []rel.Tuple
			for round := 0; round <= rounds; round++ {
				got, err := n.Answers()
				if err != nil {
					t.Fatal(err)
				}
				want, err := OracleAnswers(spec)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: swarm %d answers, oracle %d\n got %v\nwant %v", round, len(got), len(want), got, want)
				}
				if round == 0 {
					first = got
				}
				last = got
				if round == rounds {
					break
				}
				// Two facts on one storing peer: one reusing an existing
				// tuple's second value as its first, one its first as its
				// second, so each extends a chain the query follows.
				i := stored[round%len(stored)]
				t0 := spec.Facts[i][round%len(spec.Facts[i])]
				for _, f := range []rel.Tuple{{t0[1], fmt.Sprintf("w%d", round)}, {fmt.Sprintf("w%d", round), t0[0]}} {
					if err := n.Servers[i].AddFact(PeerStored(i), f); err != nil {
						t.Fatal(err)
					}
					spec.Facts[i] = append(spec.Facts[i], f)
				}
			}
			if len(last) <= len(first) {
				t.Fatalf("the writes never changed the answer (%d rows before, %d after)", len(first), len(last))
			}
			c := reg.Snapshot().Counters
			if c["fragcache.hits"] == 0 || c["fragcache.invalidations"] == 0 {
				t.Fatalf("repeats over interleaved writes: %d fragment-cache hits, %d invalidations, want both", c["fragcache.hits"], c["fragcache.invalidations"])
			}
			fresh, err := Boot(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if got, err := fresh.Answers(); err != nil || !reflect.DeepEqual(got, last) {
				t.Fatalf("a fresh swarm answers %v (%v), the repeated one %v", got, err, last)
			}
		})
	}
}
