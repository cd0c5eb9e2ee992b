package swarm

import (
	"fmt"
	"math/rand"
)

// Topology selects the shape of the mapping graph a swarm generates. Chain,
// Star and SmallWorld are rooted at the entry peer (peer 0): every mapping
// edge is directed parent → child with the parent strictly closer to the
// entry, so a query posed at the entry reformulates outward hop by hop and
// the graph is a DAG (reformulation depth is bounded by the entry's
// eccentricity). Strata's top stratum plays the entry's part: its mappings
// point one stratum down, so it is a DAG of depth Diameter-1.
type Topology int

const (
	// Chain links peer i to peer i+1: one path, maximum depth. The
	// canonical deep-topology stress shape — reformulation must walk
	// Peers-1 semantic hops to reach the farthest store.
	Chain Topology = iota
	// Star links the entry to every other peer directly: maximum fan-out,
	// depth 1. The wide-and-shallow contrast case.
	Star
	// SmallWorld is a chain backbone plus a few random forward shortcuts
	// (Watts–Strogatz flavored): long paths exist, but shortcuts create
	// reconvergent "diamonds" so subtrees are reachable — and explored —
	// along more than one semantic path.
	SmallWorld
	// Strata is the paper's Section 5 model: Diameter strata of peers,
	// mappings only across adjacent strata, a DefRatio share of them
	// definitional, storage at the bottom stratum and the query over the
	// top one (see the package comment).
	Strata
)

// String returns the topology's name.
func (t Topology) String() string {
	switch t {
	case Chain:
		return "chain"
	case Star:
		return "star"
	case SmallWorld:
		return "smallworld"
	case Strata:
		return "strata"
	}
	return fmt.Sprintf("topology(%d)", int(t))
}

// Edge is one directed mapping edge: data stored under Child is visible at
// Parent (the generator emits "include P<Child>:R in P<Parent>:R").
type Edge struct {
	Parent int
	Child  int
}

// topologyEdges generates the edge set for n peers. Shortcut edges (small
// world only) always point forward along the backbone — from a lower-depth
// peer to a strictly deeper one — so the mapping graph stays acyclic and
// every peer remains reachable from the entry.
func topologyEdges(t Topology, n, shortcuts int, rng *rand.Rand) []Edge {
	var es []Edge
	switch t {
	case Chain:
		for i := 0; i+1 < n; i++ {
			es = append(es, Edge{Parent: i, Child: i + 1})
		}
	case Star:
		for i := 1; i < n; i++ {
			es = append(es, Edge{Parent: 0, Child: i})
		}
	case SmallWorld:
		for i := 0; i+1 < n; i++ {
			es = append(es, Edge{Parent: i, Child: i + 1})
		}
		seen := map[Edge]bool{}
		for k := 0; k < shortcuts && n > 3; k++ {
			u := rng.Intn(n - 2)
			v := u + 2 + rng.Intn(n-u-2) // strictly more than one hop ahead
			e := Edge{Parent: u, Child: v}
			if seen[e] {
				continue
			}
			seen[e] = true
			es = append(es, e)
		}
	}
	return es
}

// bfsDepths returns each peer's hop distance from the entry (peer 0) over
// the directed edge set, and the maximum such distance — the depth a
// reformulation must reach to cover the whole swarm.
func bfsDepths(n int, es []Edge) (depths []int, max int) {
	adj := make([][]int, n)
	for _, e := range es {
		adj[e.Parent] = append(adj[e.Parent], e.Child)
	}
	depths = make([]int, n)
	for i := range depths {
		depths[i] = -1
	}
	depths[0] = 0
	queue := []int{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if depths[v] < 0 {
				depths[v] = depths[u] + 1
				if depths[v] > max {
					max = depths[v]
				}
				queue = append(queue, v)
			}
		}
	}
	return depths, max
}
