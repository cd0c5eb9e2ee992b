// Package swarm generates and boots in-process many-peer topologies: a peer
// data management system whose mapping graph has a chosen shape (chain,
// star, small world, or the paper's Section 5 strata), one loopback netpeer
// server per peer, and a spec-only mediator, so a query runs through the
// full pipeline — rule-goal-tree reformulation at the mediator, then
// distributed execution across the peer servers — and can be compared with a
// single-process oracle over the same specification and data. This package's
// tests hold the gates (swarm = oracle, pruned tree < unpruned tree, the
// Figure 3 and 4 shapes), and cmd/bench measures booted swarms.
//
// The chain, star and small-world networks deliberately contain the two
// kinds of waste the core pruner (internal/core, Options.NoPruneSubsumed)
// removes:
//
//   - Replicated mappings: edges near the entry are emitted Replication
//     times. The copies are content-identical, so the pruned build expands
//     one and skips the rest (Stats.PrunedSubsumed); the unpruned build
//     explores every copy's subtree, multiplying node counts by up to
//     Replication^DupDepth.
//   - Decoy branches: some peers map in a relation no peer stores or
//     derives. The pruned build refuses the expansion outright
//     (Stats.PrunedEmpty); the unpruned build expands it and discovers the
//     dead end the slow way. The entry peer always carries one decoy so
//     the hopeless-prune counter is exercised on every topology and seed.
//
// The Strata topology is the paper's Section 5 workload: Peers peers
// arranged in Diameter strata (the expected diameter L of the PDMS), a
// DefRatio share of definitional mappings ("%dd" in Figures 3 and 4),
// chain-query mapping bodies over relations of the adjacent stratum, and
// storage descriptions at the bottom stratum. The paper leaves the
// generator's small print open; the concrete choices here are:
//
//   - every peer owns one binary peer relation P<i>:R; peers are split
//     across the strata as evenly as possible, in peer order, top first;
//   - each lower-stratum relation r takes part in Replication peer mappings
//     crossing the boundary to the stratum above ("data may be replicated
//     in many peers, [so] the branching factor of the algorithm may be
//     high" — replication is what drives the branching factor, and hence
//     the exponential growth of Figure 3);
//   - with probability DefRatio a mapping is definitional: a randomly
//     chosen upper relation is defined by a chain query of length 2 over
//     lower relations including r (several rules per upper head yield the
//     unions of conjunctive queries that the paper observes raise the
//     branching factor with %dd);
//   - otherwise it is an inclusion r ⊆ u for a random upper relation u
//     (LAV style, projection-free: a lower peer replicates part of an
//     upper relation). Projection-freedom is what lets LAV reformulation
//     chain through many strata — a view that hides a join variable is
//     provably useless for covering it (the paper's V3 remark), so chains
//     of projecting views would make every deep path a dead end and the
//     tree would stay flat, contradicting Figure 3;
//   - each bottom-stratum peer stores P<i>.store with an identity
//     containment storage description, with probability StoreCoverage (a
//     coin is drawn only when StoreCoverage < 1); a bottom relation without
//     one is a dead end, which the Section 4.3 memoization and dead-end
//     detection exploit;
//   - the query is a chain of QueryLen random top-stratum relations;
//   - the random draws come in that order — mappings, coverage coins, query
//     — and the facts last, so a strata spec's mediator and query do not
//     depend on FactsPerStore or DomainSize.
//
// Strata networks plant no decoys and no content-identical copies, and
// with DefRatio > 0 a definitional head may also be an inclusion's
// right-hand side, which Theorem 3.2 places in co-NP: the paper's
// experiments mix %dd freely because they measure reformulation.
//
// A swarm is fully deterministic in its Params (seeded rand), so the
// differential corpus can replay any failure from its parameter tuple.
package swarm

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/rel"
)

// Params configures one generated swarm.
type Params struct {
	// Peers is the total number of peers, entry included (≥ 2).
	Peers int
	// Topology is the mapping-graph shape (Chain, Star, SmallWorld, Strata).
	Topology Topology
	// Replication is how many content-identical copies of each near-entry
	// mapping are emitted (≥ 1; 1 means no duplicates). Copies beyond the
	// first are pure reformulation waste: they change no answers, and the
	// pruned build skips them. Under Strata it is instead the number of
	// mappings each lower-stratum relation takes part in.
	Replication int
	// DupDepth bounds which edges are replicated: only those whose child
	// lies within this BFS depth of the entry. Bounding the duplicated
	// prefix keeps the *unpruned* tree polynomial (factor
	// Replication^DupDepth) so pruned-vs-unpruned differentials stay
	// feasible at hundreds of peers. Strata ignores it.
	DupDepth int
	// Shortcuts is the number of random forward shortcut edges added to
	// the chain backbone (SmallWorld only).
	Shortcuts int
	// Diameter is the number of strata (Strata only; 1 ≤ Diameter ≤ Peers;
	// the paper sweeps 1–10).
	Diameter int
	// DefRatio is the fraction of definitional mappings (Strata only, in
	// [0, 1]; the paper's %dd: 0, 0.10, 0.25, 0.50).
	DefRatio float64
	// StoreCoverage is the probability a peer stores data locally (0..1].
	// Peers without a store still relay semantically; a subtree with no
	// stores anywhere is a hopeless region the pruner cuts. The deepest
	// peer always stores, so full-depth reformulation is always needed,
	// and each storeless peer grows a decoy branch (see package comment).
	// Under Strata only bottom-stratum peers store, none is forced, no
	// decoy grows, and it defaults to 1 rather than 0.75.
	StoreCoverage float64
	// FactsPerStore is how many distinct tuples each storing peer holds.
	FactsPerStore int
	// DomainSize is the constant pool size ("v0" .. "v<n-1>"); small
	// domains make peers' data overlap so joins and distinct-counts bite.
	DomainSize int
	// QueryLen is the number of atoms in the driven query, chained
	// head-to-tail (1 = a single atom): entry-relation atoms, or random
	// top-stratum relations under Strata, where it defaults to 2 rather
	// than 1. Lengths above 1 multiply rewriting fan-out combinatorially;
	// keep small at large peer counts.
	QueryLen int
	// Seed drives all randomness (topology shortcuts, store placement,
	// facts). Same Params ⇒ same swarm, byte for byte.
	Seed int64
}

// chainLen is the body length of a Strata definitional mapping.
const chainLen = 2

// fill validates p and applies defaults for zero fields.
func (p Params) fill() (Params, error) {
	if p.Topology == Strata { // the Section 5 defaults
		if p.StoreCoverage == 0 {
			p.StoreCoverage = 1
		}
		if p.QueryLen == 0 {
			p.QueryLen = 2
		}
	}
	if p.Peers == 0 {
		p.Peers = 16
	}
	if p.Replication == 0 {
		p.Replication = 2
	}
	if p.DupDepth == 0 {
		p.DupDepth = 3
	}
	if p.Shortcuts == 0 {
		p.Shortcuts = 3
	}
	if p.StoreCoverage == 0 {
		p.StoreCoverage = 0.75
	}
	if p.FactsPerStore == 0 {
		p.FactsPerStore = 8
	}
	if p.DomainSize == 0 {
		p.DomainSize = 16
	}
	if p.QueryLen == 0 {
		p.QueryLen = 1
	}
	switch {
	case p.Peers < 2:
		return p, fmt.Errorf("swarm: Peers must be ≥ 2, got %d", p.Peers)
	case p.Replication < 1:
		return p, fmt.Errorf("swarm: Replication must be ≥ 1, got %d", p.Replication)
	case p.DupDepth < 0 || p.Shortcuts < 0:
		return p, fmt.Errorf("swarm: DupDepth and Shortcuts must be ≥ 0")
	case p.Topology == Strata && (p.Diameter < 1 || p.Diameter > p.Peers):
		return p, fmt.Errorf("swarm: Diameter must be in [1, Peers=%d], got %d", p.Peers, p.Diameter)
	case p.DefRatio < 0 || p.DefRatio > 1:
		return p, fmt.Errorf("swarm: DefRatio must be in [0, 1], got %g", p.DefRatio)
	case p.StoreCoverage < 0 || p.StoreCoverage > 1:
		return p, fmt.Errorf("swarm: StoreCoverage must be in (0, 1], got %g", p.StoreCoverage)
	case p.FactsPerStore < 1:
		return p, fmt.Errorf("swarm: FactsPerStore must be ≥ 1, got %d", p.FactsPerStore)
	case p.DomainSize < 1:
		return p, fmt.Errorf("swarm: DomainSize must be ≥ 1, got %d", p.DomainSize)
	case p.QueryLen < 1:
		return p, fmt.Errorf("swarm: QueryLen must be ≥ 1, got %d", p.QueryLen)
	}
	return p, nil
}

// Spec is one fully generated swarm: the mapping-graph structure, the PPL
// mediator specification (no facts — those live at the peers), and the
// per-peer data. Everything downstream (Boot, Oracle) derives from it.
type Spec struct {
	Params Params
	// Edges is the directed mapping graph (before replication); nil under
	// Strata, whose mappings are in Mediator alone.
	Edges []Edge
	// Depths[i] is peer i's BFS hop distance from the entry (its stratum
	// under Strata); Depth is the maximum — the reformulation depth needed
	// to cover the whole swarm.
	Depths []int
	Depth  int
	// Stored[i] reports whether peer i stores data (relation PeerStored(i)).
	Stored []bool
	// Decoy[i] reports whether peer i maps in a storeless decoy relation.
	Decoy []bool
	// Mediator is the PPL specification text: peer relations, mappings and
	// storage descriptions, but no facts. Load it into the entry mediator.
	Mediator string
	// Facts[i] holds peer i's stored tuples (empty slice when !Stored[i]).
	Facts [][]rel.Tuple
	// Query is the query driven through the swarm.
	Query string
}

// PeerRel returns peer i's virtual relation name ("P<i>:R").
func PeerRel(i int) string { return fmt.Sprintf("P%d:R", i) }

// PeerStored returns peer i's stored relation name ("P<i>.store").
func PeerStored(i int) string { return fmt.Sprintf("P%d.store", i) }

// decoyRel returns peer i's decoy relation name; nothing ever stores or
// derives it, so every reformulation path into it is hopeless.
func decoyRel(i int) string { return fmt.Sprintf("X%d:R", i) }

// Generate builds a deterministic swarm spec from p. The entry peer is
// peer 0; see the package comment for what the generated network contains.
func Generate(p Params) (*Spec, error) {
	p, err := p.fill()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	s := &Spec{Params: p}
	if p.Topology == Strata {
		s.strata(rng)
	} else {
		s.graph(rng)
	}

	// Facts: distinct random pairs over the shared constant pool. The pool
	// is shared across peers so different stores' tuples collide and chain.
	s.Facts = make([][]rel.Tuple, p.Peers)
	limit := p.DomainSize * p.DomainSize
	for i := 0; i < p.Peers; i++ {
		if !s.Stored[i] {
			continue
		}
		want := p.FactsPerStore
		if want > limit {
			want = limit
		}
		seen := map[[2]int]bool{}
		for len(s.Facts[i]) < want {
			k := [2]int{rng.Intn(p.DomainSize), rng.Intn(p.DomainSize)}
			if seen[k] {
				continue
			}
			seen[k] = true
			s.Facts[i] = append(s.Facts[i], rel.Tuple{
				fmt.Sprintf("v%d", k[0]), fmt.Sprintf("v%d", k[1]),
			})
		}
	}
	return s, nil
}

// graph builds a Chain, Star or SmallWorld network rooted at the entry.
func (s *Spec) graph(rng *rand.Rand) {
	p := s.Params
	s.Edges = topologyEdges(p.Topology, p.Peers, p.Shortcuts, rng)
	s.Depths, s.Depth = bfsDepths(p.Peers, s.Edges)

	// Store placement: coverage-weighted coin per peer, with the deepest
	// peer forced on so reaching full depth is always worth it.
	deepest := 0
	s.Stored = make([]bool, p.Peers)
	for i := range s.Stored {
		s.Stored[i] = rng.Float64() < p.StoreCoverage
		if s.Depths[i] > s.Depths[deepest] {
			deepest = i
		}
	}
	s.Stored[deepest] = true

	// Decoy placement: every storeless peer grows one, and the entry peer
	// always does, so PrunedEmpty fires deterministically.
	s.Decoy = make([]bool, p.Peers)
	for i := range s.Decoy {
		s.Decoy[i] = !s.Stored[i]
	}
	s.Decoy[0] = true

	var b strings.Builder
	for _, e := range s.Edges {
		copies := 1
		if s.Depths[e.Child] <= p.DupDepth {
			copies = p.Replication
		}
		for c := 0; c < copies; c++ {
			fmt.Fprintf(&b, "include %s(x, y) in %s(x, y)\n", PeerRel(e.Child), PeerRel(e.Parent))
		}
	}
	for i := 0; i < p.Peers; i++ {
		if s.Stored[i] {
			fmt.Fprintf(&b, "storage %s(x, y) in %s(x, y)\n", PeerStored(i), PeerRel(i))
		}
		if s.Decoy[i] {
			fmt.Fprintf(&b, "include %s(x, y) in %s(x, y)\n", decoyRel(i), PeerRel(i))
		}
	}
	s.Mediator = b.String()
	s.Query = chainQuery(make([]int, p.QueryLen))
}

// strata builds the Section 5 model; the package comment lists its choices
// and the order of its random draws.
func (s *Spec) strata(rng *rand.Rand) {
	p := s.Params
	var b strings.Builder
	// Every peer relation is declared up front, so a top-stratum relation
	// no mapping names can still be queried.
	strata := make([][]int, p.Diameter)
	s.Depths = make([]int, p.Peers)
	for d, i := 0, 0; d < p.Diameter; d++ {
		n := p.Peers / p.Diameter
		if d < p.Peers%p.Diameter {
			n++
		}
		for ; n > 0; n, i = n-1, i+1 {
			strata[d] = append(strata[d], i)
			s.Depths[i] = d
			fmt.Fprintf(&b, "peer P%d { R(x, y) }\n", i)
		}
	}
	s.Depth = p.Diameter - 1

	for d := 1; d < p.Diameter; d++ {
		upper, lower := strata[d-1], strata[d]
		for _, low := range lower {
			for rep := 0; rep < p.Replication; rep++ {
				if rng.Float64() < p.DefRatio {
					head := upper[rng.Intn(len(upper))]
					body := chainAtoms(chainPeers(rng, lower, low, chainLen))
					fmt.Fprintf(&b, "define %s(x0, x%d) :- %s\n", PeerRel(head), chainLen, body)
				} else {
					up := upper[rng.Intn(len(upper))]
					fmt.Fprintf(&b, "include %s(x, y) in %s(x, y)\n", PeerRel(low), PeerRel(up))
				}
			}
		}
	}

	s.Stored = make([]bool, p.Peers)
	s.Decoy = make([]bool, p.Peers)
	for _, i := range strata[p.Diameter-1] {
		if p.StoreCoverage < 1 && rng.Float64() >= p.StoreCoverage {
			continue
		}
		s.Stored[i] = true
		fmt.Fprintf(&b, "storage %s(x, y) in %s(x, y)\n", PeerStored(i), PeerRel(i))
	}
	s.Mediator = b.String()
	s.Query = chainQuery(chainPeers(rng, strata[0], -1, p.QueryLen))
}

// chainPeers draws length peers from pool; if must ≥ 0 it then takes a
// random position.
func chainPeers(rng *rand.Rand, pool []int, must, length int) []int {
	peers := make([]int, length)
	for i := range peers {
		peers[i] = pool[rng.Intn(len(pool))]
	}
	if must >= 0 {
		peers[rng.Intn(length)] = must
	}
	return peers
}

// chainAtoms writes the chain body P<a>:R(x0, x1), P<b>:R(x1, x2), … over
// the given peers' relations.
func chainAtoms(peers []int) string {
	var b strings.Builder
	for a, i := range peers {
		if a > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s(x%d, x%d)", PeerRel(i), a, a+1)
	}
	return b.String()
}

// chainQuery is the query q(x0, x<n>) over chainAtoms(peers).
func chainQuery(peers []int) string {
	return fmt.Sprintf("q(x0, x%d) :- %s", len(peers), chainAtoms(peers))
}

// OracleSource returns the single-process oracle's PPL text: the mediator
// specification plus every peer's facts as local fact statements. A network
// loaded from it answers Spec.Query with all data in one engine — the
// ground truth the distributed swarm must match.
func (s *Spec) OracleSource() string {
	var b strings.Builder
	b.WriteString(s.Mediator)
	for i, ts := range s.Facts {
		for _, t := range ts {
			fmt.Fprintf(&b, "fact %s(%q, %q)\n", PeerStored(i), t[0], t[1])
		}
	}
	return b.String()
}
