package swarm

import (
	"fmt"

	"repro/internal/netpeer"
	"repro/internal/rel"
	"repro/pdms"
)

// Net is a booted swarm: one loopback netpeer server per peer (storing
// peers hold their facts, relay peers an empty instance), a spec-only entry
// mediator, and one executor discovered across every peer. Close shuts all
// of it down.
type Net struct {
	Spec     *Spec
	Mediator *pdms.Network
	Exec     *netpeer.Executor
	Servers  []*netpeer.Server
	Addrs    []string
}

// Boot generates nothing: it takes an already generated Spec, loads the
// mediator from its specification, starts one server per peer on a
// loopback listener, and discovers them all into a fresh executor. On any
// error the partially started swarm is torn down before returning.
func Boot(spec *Spec) (*Net, error) {
	med, err := pdms.Load(spec.Mediator)
	if err != nil {
		return nil, fmt.Errorf("swarm: loading mediator spec: %w", err)
	}
	n := &Net{Spec: spec, Mediator: med, Exec: netpeer.NewExecutor()}
	for i := 0; i < spec.Params.Peers; i++ {
		data := rel.NewInstance()
		for _, t := range spec.Facts[i] {
			if _, err := data.Add(PeerStored(i), t); err != nil {
				n.Close()
				return nil, fmt.Errorf("swarm: loading peer %d facts: %w", i, err)
			}
		}
		srv := netpeer.NewServer(data)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			n.Close()
			return nil, fmt.Errorf("swarm: starting peer %d: %w", i, err)
		}
		n.Servers = append(n.Servers, srv)
		n.Addrs = append(n.Addrs, addr)
	}
	for i, addr := range n.Addrs {
		if err := n.Exec.Discover(addr); err != nil {
			n.Close()
			return nil, fmt.Errorf("swarm: discovering peer %d at %s: %w", i, addr, err)
		}
	}
	return n, nil
}

// Close shuts down the executor and every peer server. Safe on a
// partially booted Net.
func (n *Net) Close() {
	if n.Exec != nil {
		n.Exec.Close()
	}
	for _, s := range n.Servers {
		s.Close()
	}
}

// Answers drives the query and returns its answers as the pipeline does:
// distinct, in column-wise (rel.Compare) order — the differential corpus'
// swarm side.
func (n *Net) Answers() ([]rel.Tuple, error) {
	return n.Mediator.QueryVia(n.Spec.Query, n.Exec)
}

// OracleAnswers evaluates the spec's query on the single-process oracle —
// the same specification with every peer's facts loaded into one local
// network — and returns its distinct answers in rel.Compare order.
func OracleAnswers(spec *Spec) ([]rel.Tuple, error) {
	net, err := pdms.Load(spec.OracleSource())
	if err != nil {
		return nil, fmt.Errorf("swarm: loading oracle: %w", err)
	}
	rows, err := net.Query(spec.Query)
	if err != nil {
		return nil, fmt.Errorf("swarm: oracle query: %w", err)
	}
	return rows, nil
}
