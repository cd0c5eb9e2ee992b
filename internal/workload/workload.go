// Package workload generates synthetic PDMS topologies following Section 5
// of the paper: R peers arranged in strata whose count is the expected
// diameter L of the PDMS, a controlled ratio of definitional versus
// inclusion peer mappings, chain-query mapping bodies over relations of the
// adjacent stratum, and storage descriptions at the bottom stratum.
//
// The paper (PAPER.md, Section 5) leaves the generator's small print open;
// the concrete choices here are:
//
//   - every peer owns one binary peer relation; peers are split across the
//     L strata as evenly as possible;
//   - each lower-stratum relation r participates in Replication peer
//     mappings crossing the boundary to the stratum above ("data may be
//     replicated in many peers, [so] the branching factor of the algorithm
//     may be high" — replication is what drives the branching factor, and
//     hence the exponential growth of Figure 3);
//   - with probability DefRatio a mapping is definitional: a randomly
//     chosen upper relation is defined by a chain query of length ChainLen
//     over lower relations including r (several rules per upper head yield
//     the unions of conjunctive queries that the paper observes raise the
//     branching factor with %dd);
//   - otherwise it is an inclusion r ⊆ u for a random upper relation u
//     (LAV style, projection-free: a lower peer replicates part of an
//     upper relation). Projection-freedom is what lets LAV reformulation
//     chain through many strata — a view that hides a join variable is
//     provably useless for covering it (the paper's V3 remark), so chains
//     of projecting views would make every deep path a dead end and the
//     tree would stay flat, contradicting Figure 3;
//   - every bottom-stratum relation has a stored relation and an identity
//     containment storage description;
//   - the benchmark query is a chain of QueryLen top-stratum relations.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/lang"
	"repro/internal/ppl"
	"repro/internal/rel"
)

// Params configures generation.
type Params struct {
	// Peers is the number of peers R (paper: 96).
	Peers int
	// Diameter is the number of strata L (paper: 1–10).
	Diameter int
	// DefRatio is the fraction of definitional peer mappings ("%dd" in the
	// figures: 0, 0.10, 0.25, 0.50).
	DefRatio float64
	// Replication is the number of peer mappings each lower-stratum
	// relation participates in (default 2); it is the branching knob.
	Replication int
	// ChainLen is the definitional-mapping body chain length (default 2).
	ChainLen int
	// QueryLen is the query chain length (default 2).
	QueryLen int
	// StoreCoverage is the fraction of bottom-stratum relations that have
	// stored relations (default 1.0). Lower coverage creates dead-end
	// branches — paths through peers that never bottom out in data — which
	// is what the Section 4.3 memoization and dead-end detection exploit.
	StoreCoverage float64
	// FactsPerStore populates each stored relation with that many random
	// tuples (default 0: topology only, as for Figures 3 and 4).
	FactsPerStore int
	// DomainSize is the constant pool size for facts (default 8).
	DomainSize int
	// Seed drives the deterministic RNG.
	Seed int64
}

func (p *Params) fill() error {
	if p.Peers <= 0 || p.Diameter <= 0 {
		return fmt.Errorf("workload: Peers and Diameter must be positive (got %d, %d)", p.Peers, p.Diameter)
	}
	if p.Diameter > p.Peers {
		return fmt.Errorf("workload: Diameter %d exceeds Peers %d", p.Diameter, p.Peers)
	}
	if p.DefRatio < 0 || p.DefRatio > 1 {
		return fmt.Errorf("workload: DefRatio %v out of [0,1]", p.DefRatio)
	}
	if p.Replication <= 0 {
		p.Replication = 2
	}
	if p.StoreCoverage <= 0 {
		p.StoreCoverage = 1.0
	}
	if p.StoreCoverage > 1 {
		return fmt.Errorf("workload: StoreCoverage %v out of (0,1]", p.StoreCoverage)
	}
	if p.ChainLen <= 0 {
		p.ChainLen = 2
	}
	if p.QueryLen <= 0 {
		p.QueryLen = 2
	}
	if p.DomainSize <= 0 {
		p.DomainSize = 8
	}
	return nil
}

// Workload is a generated PDMS with its benchmark query and optional data.
type Workload struct {
	PDMS  *ppl.PDMS
	Data  *rel.Instance
	Query lang.CQ
	// Strata lists the peer-relation names per stratum, top (0) first.
	Strata [][]string
	// Stored lists the stored-relation names (bottom stratum).
	Stored []string
}

// Generate builds a workload.
func Generate(p Params) (*Workload, error) {
	if err := p.fill(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	n := ppl.New()

	// Distribute peers over strata as evenly as possible, one binary peer
	// relation per peer.
	strata := make([][]string, p.Diameter)
	per := p.Peers / p.Diameter
	extra := p.Peers % p.Diameter
	peerNum := 0
	for s := 0; s < p.Diameter; s++ {
		count := per
		if s < extra {
			count++
		}
		if count == 0 {
			count = 1 // every stratum needs at least one relation
		}
		for i := 0; i < count; i++ {
			peer := fmt.Sprintf("P%d_%d", s, i)
			relName := fmt.Sprintf("%s:R%d", peer, peerNum)
			peerNum++
			if err := n.DeclareRelation(ppl.RelationDecl{
				Name: relName, Peer: peer, Arity: 2, Kind: ppl.PeerRelation,
			}); err != nil {
				return nil, err
			}
			strata[s] = append(strata[s], relName)
		}
	}

	w := &Workload{PDMS: n, Data: rel.NewInstance(), Strata: strata}

	// Peer mappings across each stratum boundary.
	for s := 1; s < p.Diameter; s++ {
		upper, lower := strata[s-1], strata[s]
		for _, low := range lower {
			for rep := 0; rep < p.Replication; rep++ {
				if rng.Float64() < p.DefRatio {
					// Definitional: a random upper head defined by a chain
					// over lower relations including `low`.
					head := upper[rng.Intn(len(upper))]
					body := chainBody(rng, lower, low, p.ChainLen)
					rule := lang.CQ{
						Head: lang.NewAtom(head, lang.Var("x0"), lang.Var(fmt.Sprintf("x%d", len(body)))),
						Body: body,
					}
					if err := n.AddMapping(&ppl.Mapping{Kind: ppl.Definitional, Rule: rule}); err != nil {
						return nil, err
					}
				} else {
					// Inclusion: low ⊆ u for a random upper relation
					// (projection-free replication, LAV style).
					up := upper[rng.Intn(len(upper))]
					head := lang.NewAtom("_m", lang.Var("x"), lang.Var("y"))
					lhs := lang.CQ{
						Head: head,
						Body: []lang.Atom{lang.NewAtom(low, lang.Var("x"), lang.Var("y"))},
					}
					rhs := lang.CQ{
						Head: head.Clone(),
						Body: []lang.Atom{lang.NewAtom(up, lang.Var("x"), lang.Var("y"))},
					}
					if err := n.AddMapping(&ppl.Mapping{Kind: ppl.Inclusion, LHS: lhs, RHS: rhs}); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// Storage at the bottom stratum: identity containment descriptions.
	// With StoreCoverage < 1 some bottom relations stay storeless, turning
	// every path to them into a dead end.
	bottom := strata[p.Diameter-1]
	for i, relName := range bottom {
		// Only consume randomness when coverage is partial, so topologies
		// with StoreCoverage == 1 are seed-stable regardless of the knob.
		if p.StoreCoverage < 1 && rng.Float64() >= p.StoreCoverage {
			continue
		}
		stored := fmt.Sprintf("Store%d.s%d", i, i)
		peer := fmt.Sprintf("Store%d", i)
		if err := n.DeclareRelation(ppl.RelationDecl{
			Name: stored, Peer: peer, Arity: 2, Kind: ppl.StoredRelation,
		}); err != nil {
			return nil, err
		}
		desc := &ppl.Storage{
			Kind:   ppl.StorageContainment,
			Stored: lang.NewAtom(stored, lang.Var("x"), lang.Var("y")),
			Query: lang.CQ{
				Head: lang.NewAtom("_s", lang.Var("x"), lang.Var("y")),
				Body: []lang.Atom{lang.NewAtom(relName, lang.Var("x"), lang.Var("y"))},
			},
		}
		if err := n.AddStorage(desc); err != nil {
			return nil, err
		}
		w.Stored = append(w.Stored, stored)
		for f := 0; f < p.FactsPerStore; f++ {
			tup := rel.Tuple{
				fmt.Sprintf("c%d", rng.Intn(p.DomainSize)),
				fmt.Sprintf("c%d", rng.Intn(p.DomainSize)),
			}
			if _, err := w.Data.Add(stored, tup); err != nil {
				return nil, err
			}
		}
	}

	// Benchmark query: chain over top-stratum relations.
	qbody := chainBody(rng, strata[0], "", p.QueryLen)
	w.Query = lang.CQ{
		Head: lang.NewAtom("q", lang.Var("x0"), lang.Var(fmt.Sprintf("x%d", len(qbody)))),
		Body: qbody,
	}
	return w, nil
}

// chainBody builds a chain query body R1(x0,x1), R2(x1,x2), … of the given
// length over relations drawn from pool; if must is non-empty it is placed
// at a random position.
func chainBody(rng *rand.Rand, pool []string, must string, length int) []lang.Atom {
	names := make([]string, length)
	for i := range names {
		names[i] = pool[rng.Intn(len(pool))]
	}
	if must != "" {
		names[rng.Intn(length)] = must
	}
	body := make([]lang.Atom, length)
	for i, nm := range names {
		body[i] = lang.NewAtom(nm,
			lang.Var(fmt.Sprintf("x%d", i)),
			lang.Var(fmt.Sprintf("x%d", i+1)))
	}
	return body
}
