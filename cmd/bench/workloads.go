package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/rel"
	"repro/internal/swarm"
)

// scale says how much work a run does. Sizes of data and topology are
// fixed per workload (two sets: full and smoke); only the number of ops in
// the measured sequence follows seconds, as seconds × the rate probed at
// HEAD on the reference box, so the work is fixed for a given command line
// and a faster program finishes sooner.
type scale struct {
	smoke   bool
	seconds float64
}

// units returns how many repetitions of a unit of unitOps ops fill
// sc.seconds at rate ops/s, and at least min.
func (sc scale) units(rate float64, unitOps, min int) int {
	if sc.smoke {
		return 1
	}
	n := int(math.Round(sc.seconds * rate / float64(unitOps)))
	if n < min {
		n = min
	}
	return n
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// clients is the closed-loop client count.
	clients int
	plan    func(seed int64, sc scale) (*plan, error)
}

var workloads = []workload{
	{"adhoc_swarm", "128-peer small-world swarm, every query misses the reformulation cache: internal/core carries it", 1, planSwarm},
	{"join_mixed", "cross-peer bind-joins with 10% write batches, 2 clients: executor, fragment cache, pool and small frames carry it", 2, planJoin},
	{"bulk_stream", "large single-atom answers streamed from 3 peers: server scan, frame codec and socket carry it", 1, planBulk},
	{"local_durable", "one journaled local network, write batches between engine queries: engine, rel, store and pdms caches carry it", 1, planLocal},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sideBatch is the number of rows in one batch of a trailing write phase.
const sideBatch = 64

// sampleCount is how many answers per run are compared in full with the
// oracle.
const sampleCount = 32

// markSamples flags sampleCount query ops, spread evenly over ops.
func markSamples(ops []op) {
	var qs []int
	for i := range ops {
		if !ops[i].write {
			qs = append(qs, i)
		}
	}
	n := sampleCount
	if n > len(qs) {
		n = len(qs)
	}
	for k := 0; k < n; k++ {
		ops[qs[k*len(qs)/n]].sample = true
	}
}

// ---- adhoc_swarm ----------------------------------------------------

// swarmTopologySeed fixes the mapping graph. Reformulation cost differs by
// up to 2× between small-world graphs of the same parameters (it follows
// where the shortcuts land), which no bound of a tenth survives, so the
// graph is part of the workload's definition; the run's seed draws the
// facts and the order and constants of the queries.
const swarmTopologySeed = 16

// swarmDomain is the size of the swarm's constant pool.
const swarmDomain = 24

func planSwarm(seed int64, sc scale) (*plan, error) {
	params := swarm.Params{
		Peers: 128, Topology: swarm.SmallWorld, Replication: 2, DupDepth: 3, Shortcuts: 3,
		StoreCoverage: 0.75, FactsPerStore: 32, DomainSize: swarmDomain, Seed: swarmTopologySeed,
	}
	// Queries are posed at entries consecutive peers from firstEntry on,
	// a fifth of the way down the backbone: their rewritings still span
	// some hundred peers, at two thirds of the cost of posing at peer 0.
	firstEntry, entries, writeBatches := 24, 25, 6000
	if sc.smoke {
		params.Peers, params.FactsPerStore = 16, 8
		firstEntry, entries, writeBatches = 0, 5, 10
	}
	t0 := time.Now()
	spec, err := swarm.Generate(params)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var stores []int
	for i := range spec.Facts {
		if !spec.Stored[i] {
			continue
		}
		stores = append(stores, i)
		spec.Facts[i] = spec.Facts[i][:0]
		seen := map[[2]int]bool{}
		for len(spec.Facts[i]) < params.FactsPerStore {
			k := [2]int{rng.Intn(swarmDomain), rng.Intn(swarmDomain)}
			if seen[k] {
				continue
			}
			seen[k] = true
			spec.Facts[i] = append(spec.Facts[i], rel.Tuple{"v" + strconv.Itoa(k[0]), "v" + strconv.Itoa(k[1])})
		}
	}
	p := &plan{spec: spec.Mediator, swarm: spec, peers: params.Peers, stored: map[string]int{}}
	for _, i := range stores {
		p.stored[swarm.PeerStored(i)] = params.FactsPerStore
	}
	p.sizes = map[string]int{"peers": params.Peers, "stores": len(stores), "facts_per_store": params.FactsPerStore, "depth": spec.Depth, "first_entry_peer": firstEntry, "entry_peers": entries}
	p.generateMS = float64(time.Since(t0).Nanoseconds()) / 1e6

	query := func(peer int, c string) string {
		return fmt.Sprintf("q(y) :- %s(%q, y)", swarm.PeerRel(peer), c)
	}
	// Every segment poses k queries at each entry peer, so all segments
	// cost the same whatever the seed. Each peer walks its own permutation
	// of the constants: a text repeats only after a full walk, which is
	// more distinct texts than the reformulation cache holds, so every
	// query of the measured sequence misses it — also when the traced run
	// drives the sequence a second time, as long as the sequence is longer
	// than the cache. At least 4 per peer and segment, for that and for the
	// 100 queries a segment's p90 needs. The warm-up uses a constant no
	// query uses, for the same reason.
	k := sc.units(swarmRate, segments*entries, 4)
	perms := make([][]int, entries)
	for i := range perms {
		perms[i] = rng.Perm(swarmDomain)
	}
	for s := 0; s < segments; s++ {
		seg := make([]op, 0, entries*k)
		for i := 0; i < entries; i++ {
			for j := 0; j < k; j++ {
				c := perms[i][(s*k+j)%swarmDomain]
				seg = append(seg, op{text: query(firstEntry+i, "v"+strconv.Itoa(c)), want: -1})
			}
		}
		rng.Shuffle(len(seg), func(a, b int) { seg[a], seg[b] = seg[b], seg[a] })
		p.main = append(p.main, seg...)
	}
	markSamples(p.main)
	for i := 0; i < entries; i++ {
		p.warm = append(p.warm, op{text: query(firstEntry+i, "warm"), want: 0}, op{text: query(firstEntry+i, "warmer"), want: 0})
		p.probes = append(p.probes, query(firstEntry+i, "v0"))
	}
	p.reopenCheck = op{text: query(firstEntry, "warm"), want: 0}
	// The trailing write phase: batches of new facts to the storing peers
	// in turn. Their first column is no query's constant, so the answers
	// the oracle predicts stay as they are.
	for b := 0; b < writeBatches; b++ {
		peer := stores[b%len(stores)]
		rows := make([][]string, sideBatch)
		for r := range rows {
			rows[r] = []string{"w" + strconv.Itoa(b) + "_" + strconv.Itoa(r), "v" + strconv.Itoa(r%swarmDomain)}
		}
		p.writes = append(p.writes, op{write: true, pred: swarm.PeerStored(peer), peer: peer, rows: rows})
	}
	p.biggest, p.biggestPeer = swarm.PeerStored(stores[0]), stores[0]
	return p, nil
}

// ---- the emergency-services PDMS (join_mixed, local_durable) ---------

// emergency is the paper's Example 1.1 network scaled up: hospital peers
// storing doctors, fire-district peers storing medics, a dispatch peer
// storing incidents, all keyed by location, with GAV mappings DC:OnCall and
// DC:Respond over H:Doctor and FS:Medic. Every location holds the same
// number of rows of each relation, so a query's cost depends on its shape
// and not on the location the seed drew.
type emergency struct {
	hospitals, fires                   int
	docs, medics, incidents, locations int
	hot                                []int // locations the queries name
	cold                               []int // locations the write batches use
	offs                               map[string]int
}

type storedRel struct {
	pred string
	peer int
}

// writable lists the relations write batches rotate over, with their peers.
func (e *emergency) writable() []storedRel {
	var out []storedRel
	for k := 0; k < e.hospitals; k++ {
		out = append(out, storedRel{fmt.Sprintf("H%d.doc", k), k})
	}
	for k := 0; k < e.fires; k++ {
		out = append(out, storedRel{fmt.Sprintf("FD%d.medic", k), e.hospitals + k})
	}
	return out
}

func newEmergency(rng *rand.Rand, docs, medics, incidents, locations, hot int) *emergency {
	e := &emergency{hospitals: 3, fires: 2, docs: docs, medics: medics, incidents: incidents, locations: locations, offs: map[string]int{}}
	perm := rng.Perm(locations)
	e.hot = perm[:hot]
	e.cold = perm[hot : hot+hot]
	for _, r := range e.writable() {
		e.offs[r.pred] = rng.Intn(locations)
	}
	e.offs["DC.incident"] = rng.Intn(locations)
	return e
}

func (e *emergency) spec() string {
	var b strings.Builder
	for k := 0; k < e.hospitals; k++ {
		fmt.Fprintf(&b, "storage H%d.doc(s, l) in H:Doctor(s, l)\n", k)
	}
	for k := 0; k < e.fires; k++ {
		fmt.Fprintf(&b, "storage FD%d.medic(s, l) in FS:Medic(s, l)\n", k)
	}
	b.WriteString("storage DC.incident(i, l, v) in DC:Incident(i, l, v)\n")
	b.WriteString("define DC:OnCall(d, m, l) :- H:Doctor(d, l), FS:Medic(m, l)\n")
	b.WriteString("define DC:Respond(i, d, m) :- DC:Incident(i, l, v), H:Doctor(d, l), FS:Medic(m, l)\n")
	return b.String()
}

func loc(i int) string { return "loc" + strconv.Itoa(i) }

// facts generates every stored fact. Row j of a relation sits at location
// (j + the relation's seeded offset) mod locations.
func (e *emergency) facts(emit func(peer int, pred string, t rel.Tuple) error) error {
	for _, r := range e.writable() {
		n, tag := e.rows(r)
		off := e.offs[r.pred]
		for j := 0; j < n; j++ {
			id := tag + strconv.Itoa(r.peer) + "_" + strconv.Itoa(j)
			if err := emit(r.peer, r.pred, rel.Tuple{id, loc((j + off) % e.locations)}); err != nil {
				return err
			}
		}
	}
	dc := e.hospitals + e.fires
	off := e.offs["DC.incident"]
	for j := 0; j < e.incidents; j++ {
		t := rel.Tuple{"i" + strconv.Itoa(j), loc((j + off) % e.locations), "sev" + strconv.Itoa(j%3)}
		if err := emit(dc, "DC.incident", t); err != nil {
			return err
		}
	}
	return nil
}

// rows returns how many facts writable relation r starts with, and the tag
// its ids carry.
func (e *emergency) rows(r storedRel) (n int, tag string) {
	if strings.HasPrefix(r.pred, "FD") {
		return e.medics, "m"
	}
	return e.docs, "d"
}

// stored returns every stored relation's initial size.
func (e *emergency) stored() map[string]int {
	out := map[string]int{"DC.incident": e.incidents}
	for _, r := range e.writable() {
		out[r.pred], _ = e.rows(r)
	}
	return out
}

func (e *emergency) doctorsAt() int   { return e.hospitals * e.docs / e.locations }
func (e *emergency) medicsAt() int    { return e.fires * e.medics / e.locations }
func (e *emergency) incidentsAt() int { return e.incidents / e.locations }

// The query shapes, each with the answer size the generator predicts.
func (e *emergency) onCall(l int) op {
	return op{text: fmt.Sprintf("q(d, m) :- DC:OnCall(d, m, %q)", loc(l)), want: e.doctorsAt() * e.medicsAt()}
}
func (e *emergency) respond(l int) op {
	return op{text: fmt.Sprintf("q(i, d, m) :- DC:Respond(i, d, m), DC:Incident(i, %q, s)", loc(l)),
		want: e.incidentsAt() * e.doctorsAt() * e.medicsAt()}
}
func (e *emergency) doctorSel(l int) op {
	return op{text: fmt.Sprintf("q(d) :- H:Doctor(d, %q)", loc(l)), want: e.doctorsAt()}
}
func (e *emergency) medicSel(l int) op {
	return op{text: fmt.Sprintf("q(m) :- FS:Medic(m, %q)", loc(l)), want: e.medicsAt()}
}

// batch builds one write batch of n new rows for relation r at cold
// locations. tag and serial make its ids unlike any other batch's.
func (e *emergency) batch(r storedRel, tag string, serial, n int) op {
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{tag + strconv.Itoa(serial) + "_" + strconv.Itoa(i), loc(e.cold[(serial+i)%len(e.cold)])}
	}
	return op{write: true, pred: r.pred, peer: r.peer, rows: rows}
}

// ---- join_mixed -------------------------------------------------------

func planJoin(seed int64, sc scale) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	e := newEmergency(rng, 100000, 100000, 20000, 20000, 100)
	if sc.smoke {
		e = newEmergency(rng, 400, 400, 100, 100, 10)
	}
	p := &plan{spec: e.spec(), peers: e.hospitals + e.fires + 1, facts: e.facts, stored: e.stored()}
	p.sizes = map[string]int{"docs_per_hospital": e.docs, "medics_per_fire": e.medics, "incidents": e.incidents, "locations": e.locations, "hot_locations": len(e.hot)}
	rels := e.writable()

	// A block is 18 queries (9 of each shape) and 2 write batches in a
	// seeded order; a segment is a whole number of blocks, so every segment
	// has the same mix. The hot set bounds the distinct texts to 2 × hot,
	// inside the reformulation cache.
	blocks := sc.units(joinRate, segments*20, 6)
	if sc.smoke {
		blocks = 1
	}
	next, serial := 0, 0
	for b := 0; b < segments*blocks; b++ {
		block := make([]op, 0, 20)
		for i := 0; i < 9; i++ {
			l := e.hot[next%len(e.hot)]
			next++
			block = append(block, e.onCall(l), e.respond(l))
		}
		for i := 0; i < 2; i++ {
			block = append(block, e.batch(rels[serial%len(rels)], "w", serial, 64))
			serial++
		}
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		p.main = append(p.main, block...)
	}
	markSamples(p.main)
	// The warm-up poses every distinct text and writes to every relation:
	// all caches the measured phase leans on have seen their working set,
	// and every index it probes is built.
	for _, l := range e.hot {
		o1, o2 := e.onCall(l), e.respond(l)
		p.warm = append(p.warm, o1, o2)
		p.probes = append(p.probes, o1.text, o2.text)
	}
	for i, r := range rels {
		p.warm = append(p.warm, e.batch(r, "warm", i, 64))
	}
	// A second pass over the texts takes the fragment cache's revalidation
	// path, which most measured queries take.
	p.warm = append(p.warm, p.warm[:2*len(e.hot)]...)
	p.reopenCheck = e.onCall(e.hot[0])
	p.biggest, p.biggestPeer = rels[0].pred, rels[0].peer
	return p, nil
}

// ---- bulk_stream ------------------------------------------------------

// bulkKeys is the number of distinct keys of the log relations; a query
// selects one key, a thirtieth of every peer's rows.
const bulkKeys = 30

func planBulk(seed int64, sc scale) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	peers, rows, writeBatches := 3, 75000, 6000
	if sc.smoke {
		rows, writeBatches = 600, 10
	}
	offs := make([]int, peers)
	for k := range offs {
		offs[k] = rng.Intn(bulkKeys)
	}
	salt := rng.Uint64()
	var b strings.Builder
	for k := 0; k < peers; k++ {
		fmt.Fprintf(&b, "storage A%d.log(i, k, p) in M:Log(i, k, p)\n", k)
	}
	p := &plan{spec: b.String(), peers: peers, stored: map[string]int{}}
	p.sizes = map[string]int{"peers": peers, "rows_per_peer": rows, "keys": bulkKeys}
	pred := func(k int) string { return "A" + strconv.Itoa(k) + ".log" }
	for k := 0; k < peers; k++ {
		p.stored[pred(k)] = rows
	}
	p.facts = func(emit func(int, string, rel.Tuple) error) error {
		for k := 0; k < peers; k++ {
			for j := 0; j < rows; j++ {
				t := rel.Tuple{"a" + strconv.Itoa(k) + "_" + strconv.Itoa(j), "k" + strconv.Itoa((j+offs[k])%bulkKeys), payload(salt, k, j)}
				if err := emit(k, pred(k), t); err != nil {
					return err
				}
			}
		}
		return nil
	}
	query := func(key int) op {
		return op{text: fmt.Sprintf("q(i, p) :- M:Log(i, %q, p)", "k"+strconv.Itoa(key)), want: peers * rows / bulkKeys}
	}
	// The sequence cycles a seeded permutation of the keys; a segment is a
	// whole number of cycles.
	cycles := sc.units(bulkRate, segments*bulkKeys, 4)
	perm := rng.Perm(bulkKeys)
	if sc.smoke {
		perm = perm[:6]
	}
	for c := 0; c < segments*cycles; c++ {
		for _, key := range perm {
			p.main = append(p.main, query(key))
		}
	}
	markSamples(p.main)
	for _, key := range perm {
		o := query(key)
		p.warm = append(p.warm, o)
		p.probes = append(p.probes, o.text)
	}
	p.reopenCheck = query(perm[0])
	// The trailing write phase appends rows under a key no query selects.
	for s := 0; s < writeBatches; s++ {
		k := s % peers
		batch := make([][]string, sideBatch)
		for i := range batch {
			batch[i] = []string{"w" + strconv.Itoa(s) + "_" + strconv.Itoa(i), "kw", payload(salt, peers+k, s*sideBatch+i)}
		}
		p.writes = append(p.writes, op{write: true, pred: pred(k), peer: k, rows: batch})
	}
	p.biggest, p.biggestPeer = pred(0), 0
	return p, nil
}

// payload is a 48-character value derived from the salt and the row's
// position (three rounds of splitmix64, written as hex).
func payload(salt uint64, k, j int) string {
	x := salt + uint64(k)<<40 + uint64(j)
	buf := make([]byte, 0, 48)
	for r := 0; r < 3; r++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		const hex = "0123456789abcdef"
		for s := 60; s >= 0; s -= 4 {
			buf = append(buf, hex[(z>>uint(s))&0xf])
		}
	}
	return string(buf)
}

// ---- local_durable ----------------------------------------------------

func planLocal(seed int64, sc scale) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	e := newEmergency(rng, 60000, 60000, 12000, 12000, 80)
	if sc.smoke {
		e = newEmergency(rng, 400, 400, 100, 100, 10)
	}
	p := &plan{spec: e.spec(), facts: e.facts, stored: e.stored()}
	p.sizes = map[string]int{"docs_per_hospital": e.docs, "medics_per_fire": e.medics, "incidents": e.incidents, "locations": e.locations, "hot_locations": len(e.hot)}
	rels := e.writable()

	// A cycle is one write batch of 50 facts into the next relation, then
	// 11 queries that touch that relation and have therefore not been
	// answered since it last changed (5 selections and 6 joins, recomputed
	// by the engine), then the first 4 of them again (answer-cache hits).
	// Hits are the fastest 27% and selections the next 33%, so p50 sits
	// inside the selection mode and p90 inside the join mode. Three shapes
	// over the hot set bound the distinct texts to 3 × hot, inside the
	// reformulation cache.
	cycles := sc.units(localRate, segments*16, 8)
	selCursor, joinCursor := 0, 0
	for c := 0; c < segments*cycles; c++ {
		r := rels[c%len(rels)]
		p.main = append(p.main, e.batch(r, "w", c, 50))
		sel := e.doctorSel
		if strings.HasPrefix(r.pred, "FD") {
			sel = e.medicSel
		}
		fresh := make([]op, 0, 11)
		for i := 0; i < 5; i++ {
			fresh = append(fresh, sel(e.hot[selCursor%len(e.hot)]))
			selCursor++
		}
		for i := 0; i < 6; i++ {
			fresh = append(fresh, e.onCall(e.hot[joinCursor%len(e.hot)]))
			joinCursor++
		}
		rng.Shuffle(len(fresh), func(a, b int) { fresh[a], fresh[b] = fresh[b], fresh[a] })
		p.main = append(p.main, fresh...)
		p.main = append(p.main, fresh[:4]...)
	}
	markSamples(p.main)
	for _, l := range e.hot {
		for _, o := range []op{e.doctorSel(l), e.medicSel(l), e.onCall(l)} {
			p.warm = append(p.warm, o)
			p.probes = append(p.probes, o.text)
		}
	}
	for i, r := range rels {
		p.warm = append(p.warm, e.batch(r, "warm", i, 50))
	}
	p.reopenCheck = e.onCall(e.hot[0])
	p.biggest = rels[0].pred
	// Every query names one hot location and every mapping joins on the
	// location, so the certain answers depend on the facts at hot locations
	// only; the chase oracle gets those.
	hot := map[string]bool{}
	for _, l := range e.hot {
		hot[loc(l)] = true
	}
	p.oracleKeep = func(t rel.Tuple) bool { return hot[t[1]] }
	return p, nil
}

// Rates of the measured sequences in ops/s, the calibration kernel's share
// included, probed at HEAD on the 2-core reference box. They size the op
// counts only; recalibrate them, not the shapes, if the phase drifts far
// from --seconds.
const (
	swarmRate = 43
	joinRate  = 950
	bulkRate  = 36
	localRate = 4000
)
