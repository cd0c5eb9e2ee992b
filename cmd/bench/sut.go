package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/netpeer"
	"repro/internal/rel"
	"repro/internal/swarm"
	"repro/pdms"
)

// plan is everything a workload generates from its seed: the mediator
// specification, the stored facts, the op sequences and the queries the
// layer probes use. It holds inputs only; build turns it into a running
// system.
type plan struct {
	// spec is the PPL text of the mediator (no facts).
	spec string
	// swarm is set by adhoc_swarm, whose peers internal/swarm boots.
	swarm *swarm.Spec
	// peers is the number of loopback peer servers; 0 selects the local
	// durable network.
	peers int
	// facts streams every stored fact to emit, generating it on the way,
	// so that generation is part of set-up. Peer is ignored locally.
	facts func(emit func(peer int, pred string, t rel.Tuple) error) error
	// warm is the warm-up pass, main the measured sequence, and writes the
	// trailing write phase of workloads whose main sequence has no writes.
	warm, main, writes []op
	// reopenCheck is posed right after a reopen; recover_s ends when its
	// answer has been verified.
	reopenCheck op
	// oracleKeep, when set, selects the facts the oracle is loaded with.
	oracleKeep func(t rel.Tuple) bool
	// probes are the distinct query texts the layer probes draw from.
	probes []string
	// biggest names the largest stored relation and the peer serving it.
	biggest     string
	biggestPeer int
	// stored is the number of facts each stored relation starts with.
	stored map[string]int
	// sizes is written into the output so a reader can see the scale.
	sizes map[string]int
	// generateMS is how long swarm.Generate took (adhoc_swarm only).
	generateMS float64
}

// sut is the running system under test: a mediator plus either an executor
// over loopback peer servers or a local durable network.
type sut struct {
	p       *plan
	med     *pdms.Network
	exec    *netpeer.Executor
	servers []*netpeer.Server
	addrs   []string
	data    []*rel.Instance // per peer; nil for swarm peers, which swarm.Boot loads
	sw      *swarm.Net
	dir     string
	// writers holds one connection per client and peer for write batches.
	// Each client goroutine touches only its own map.
	writers []map[int]*netpeer.Client

	// bootMS is how long the last swarm.Boot took (adhoc_swarm only).
	bootMS float64
}

// build loads the plan's facts and brings the system up: servers started
// and discovered (networked) or facts journaled through AddFact (local).
func build(p *plan, clients int, dir string) (*sut, error) {
	s := &sut{p: p, dir: dir, writers: make([]map[int]*netpeer.Client, clients)}
	for c := range s.writers {
		s.writers[c] = map[int]*netpeer.Client{}
	}
	switch {
	case p.swarm != nil:
		if err := s.bootSwarm(); err != nil {
			return nil, err
		}
	case p.peers > 0:
		s.data = make([]*rel.Instance, p.peers)
		for i := range s.data {
			s.data[i] = rel.NewInstance()
		}
		err := p.facts(func(peer int, pred string, t rel.Tuple) error {
			_, err := s.data[peer].Add(pred, t)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("loading facts: %w", err)
		}
		if err := s.bootPeers(); err != nil {
			s.close()
			return nil, err
		}
	default:
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		med, err := pdms.LoadWithOptions(p.spec, pdms.Options{DataDir: dir})
		if err != nil {
			return nil, err
		}
		s.med = med
		err = p.facts(func(_ int, pred string, t rel.Tuple) error {
			return med.AddFact(pred, t...)
		})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("journaling facts: %w", err)
		}
	}
	return s, nil
}

func (s *sut) bootSwarm() error {
	t0 := time.Now()
	sw, err := swarm.Boot(s.p.swarm)
	if err != nil {
		return err
	}
	s.bootMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	s.sw, s.med, s.exec, s.servers, s.addrs = sw, sw.Mediator, sw.Exec, sw.Servers, sw.Addrs
	return nil
}

// bootPeers starts one loopback server per peer instance, discovers them
// all into a fresh executor and loads a fresh spec-only mediator.
func (s *sut) bootPeers() error {
	med, err := pdms.Load(s.p.spec)
	if err != nil {
		return err
	}
	s.med, s.exec = med, netpeer.NewExecutor()
	s.servers, s.addrs = nil, nil
	for i, data := range s.data {
		srv := netpeer.NewServer(data)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("starting peer %d: %w", i, err)
		}
		s.servers = append(s.servers, srv)
		s.addrs = append(s.addrs, addr)
	}
	for i, addr := range s.addrs {
		if err := s.exec.Discover(addr); err != nil {
			return fmt.Errorf("discovering peer %d: %w", i, err)
		}
	}
	return nil
}

// reopen closes every component and brings it back: new listeners, server
// engines, executor and mediator over the facts kept in memory (networked),
// or a replay of the segment journal (local). It returns once the plan's
// reopenCheck query has been answered correctly.
func (s *sut) reopen() error {
	if err := s.shutdown(); err != nil {
		return err
	}
	var err error
	switch {
	case s.sw != nil:
		err = s.bootSwarm()
	case s.exec != nil:
		err = s.bootPeers()
	default:
		s.med, err = pdms.LoadWithOptions(s.p.spec, pdms.Options{DataDir: s.dir})
	}
	if err != nil {
		return err
	}
	o := &s.p.reopenCheck
	ans, err := s.query(o.text)
	if err != nil {
		return err
	}
	if o.want >= 0 && len(ans) != o.want {
		return fmt.Errorf("after reopen %s: %d rows, want %d", o.text, len(ans), o.want)
	}
	return nil
}

// shutdown stops every running component, keeping loaded data.
func (s *sut) shutdown() error {
	for _, m := range s.writers {
		for peer, c := range m {
			c.Close()
			delete(m, peer)
		}
	}
	switch {
	case s.sw != nil:
		s.sw.Close()
	case s.exec != nil:
		s.exec.Close()
		for _, srv := range s.servers {
			srv.Close()
		}
	case s.med != nil:
		return s.med.Close()
	}
	return nil
}

// close shuts the system down for good and removes its data directory.
func (s *sut) close() error {
	err := s.shutdown()
	if s.exec == nil && s.dir != "" {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// query poses text the way a caller would: through the executor when the
// stored relations live on peers, locally otherwise.
func (s *sut) query(text string) ([]pdms.Answer, error) {
	if s.exec != nil {
		return s.med.QueryVia(text, s.exec)
	}
	return s.med.Query(text)
}

// write applies one write batch: Client.Add to the serving peer, or one
// AddFact per row on the local network.
func (s *sut) write(client int, o *op) error {
	if s.exec == nil {
		for _, r := range o.rows {
			if err := s.med.AddFact(o.pred, r...); err != nil {
				return err
			}
		}
		return nil
	}
	c, err := s.writer(client, o.peer)
	if err != nil {
		return err
	}
	_, err = c.Add(o.pred, o.rows)
	return err
}

func (s *sut) writer(client, peer int) (*netpeer.Client, error) {
	if c := s.writers[client][peer]; c != nil {
		if !c.Broken() {
			return c, nil
		}
		c.Close()
	}
	c, err := netpeer.Dial(s.addrs[peer])
	if err != nil {
		return nil, err
	}
	s.writers[client][peer] = c
	return c, nil
}

// drive is the untraced driver: every op exactly as a caller issues it.
func (s *sut) drive(client, _ int, o *op) ([]pdms.Answer, error) {
	if o.write {
		return nil, s.write(client, o)
	}
	return s.query(o.text)
}
