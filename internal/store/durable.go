package store

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rel"
)

// defaultMaxSegmentBytes is the rotation threshold for one relation's open
// segment: large enough that sequential replay is dominated by decoding,
// small enough that torn-tail truncation never discards much.
const defaultMaxSegmentBytes = 8 << 20

// Options configure a Dir.
type Options struct {
	// MaxSegmentBytes rotates a relation's open segment once it grows past
	// this many bytes (0 = defaultMaxSegmentBytes). Rotation syncs the
	// finished segment, so only the open tail segment is ever torn.
	MaxSegmentBytes int64
}

// Dir is a durable journal for one rel.Instance: every relation gets a
// subdirectory holding a sequence of append-only segment files that
// mirrors its in-memory insert log frame for frame. Open + Recover +
// Attach is the lifecycle:
//
//	d, _ := store.Open(path, store.Options{})
//	ins, recs, err := d.Recover(0) // replay segments -> bit-identical instance
//	d.Attach(ins)                  // journal every insert from here on
//	...
//	d.Close()                      // flush + fsync open segments
//
// OpenInstance runs the first three steps (and merges a specification's
// facts) with the Dir closed on every failure; pdms and peerd start there.
//
// Appends reach the journal through rel's append hooks, which run under the
// relation's lock — so segment frames are written in exactly the log's
// order and the per-segment generation ranges tile the relation's log.
// Journaling is asynchronous with respect to the disk: frames sit in a
// buffered writer until Flush/Sync/Close (or rotation), trading a bounded
// crash-loss window for insert-path speed; recovery's torn-tail truncation
// makes that window safe.
//
// A Dir is safe for concurrent appends (per-relation locking); Recover and
// Attach are startup-time calls that must complete before the instance is
// shared.
type Dir struct {
	root   string
	maxSeg int64

	mu   sync.Mutex
	rels map[string]*relLog // guarded by mu
	// failedErr is the first journal append error (disk full, I/O error);
	// once set, Flush/Sync/Close report it so callers cannot mistake a
	// wounded journal for a healthy one. Guarded by mu.
	failedErr error

	segments    obs.Counter // segment files created
	bytesOut    obs.Counter // frame bytes appended (pre-buffering)
	truncations obs.Counter // torn tails truncated during recovery
	recovered   obs.Counter // tuples replayed by Recover
	replayMicro obs.Gauge   // wall time of the last Recover, microseconds
}

// Open creates (if needed) the journal directory at path and returns a Dir
// over it. No segment is read until Recover.
func Open(path string, opts Options) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	maxSeg := opts.MaxSegmentBytes
	if maxSeg <= 0 {
		maxSeg = defaultMaxSegmentBytes
	}
	return &Dir{root: path, maxSeg: maxSeg, rels: map[string]*relLog{}}, nil
}

// relLog is one relation's journal state: the open segment writer and the
// number of inserts journaled.
type relLog struct {
	d     *Dir
	pred  string
	arity int

	mu sync.Mutex
	// w is the open segment writer (nil until the first append after open
	// or rotation), guarded by mu.
	w *segWriter
	// count is the number of inserts journaled — equal to the relation's
	// in-memory generation once every hook call has returned. Guarded by
	// mu.
	count uint64
}

func (rl *relLog) dir() string { return filepath.Join(rl.d.root, escapeRel(rl.pred)) }

// append journals one insert; it runs inside rel's append hook, under the
// relation's in-memory lock.
func (rl *relLog) append(t rel.Tuple, gen uint64) error {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if gen != rl.count+1 {
		err := fmt.Errorf("store: %s: insert generation %d, journal at %d (journal gap)",
			rl.pred, gen, rl.count)
		rl.d.fail(err)
		return err
	}
	if rl.w == nil {
		if err := rl.openSegmentLocked(); err != nil {
			rl.d.fail(err)
			return err
		}
	}
	n, err := rl.w.appendTuple(t)
	rl.d.bytesOut.Add(uint64(n))
	if err != nil {
		rl.d.fail(err)
		return err
	}
	rl.count = gen
	if rl.w.bytes >= rl.d.maxSeg {
		// Rotate: sync and close the finished segment so only the open
		// tail is ever exposed to torn writes; the next append opens a
		// fresh segment at the current generation.
		if err := rl.w.close(); err != nil {
			rl.d.fail(err)
			return err
		}
		rl.w = nil
	}
	return nil
}

// openSegmentLocked creates the relation's next segment file, starting at
// the current journaled generation. Caller holds rl.mu.
func (rl *relLog) openSegmentLocked() error {
	if err := os.MkdirAll(rl.dir(), 0o755); err != nil {
		return err
	}
	path := filepath.Join(rl.dir(), segFileName(rl.count))
	w, err := createSegment(path, segHeader{
		Magic: segMagic, Rel: rl.pred, Arity: rl.arity,
		Shard: 0, Shards: 1, GenLo: rl.count,
	})
	if err != nil {
		return err
	}
	rl.d.segments.Add(1)
	rl.d.bytesOut.Add(uint64(w.bytes))
	rl.w = w
	return nil
}

func (d *Dir) fail(err error) {
	d.mu.Lock()
	if d.failedErr == nil {
		d.failedErr = err
	}
	d.mu.Unlock()
}

// Err returns the first journal append error, or nil while healthy.
func (d *Dir) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failedErr
}

// forEachRelLog snapshots the registered relation logs under d.mu and
// visits them outside it (visiting takes the per-relation locks that
// appends also take). It returns the first journal append error or,
// failing that, the first visit error.
func (d *Dir) forEachRelLog(visit func(*relLog) error) error {
	d.mu.Lock()
	logs := make([]*relLog, 0, len(d.rels))
	for _, rl := range d.rels {
		logs = append(logs, rl)
	}
	first := d.failedErr
	d.mu.Unlock()
	for _, rl := range logs {
		if err := visit(rl); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Flush pushes every open segment's buffered frames to the OS (no fsync).
func (d *Dir) Flush() error {
	return d.forEachRelLog(func(rl *relLog) error {
		rl.mu.Lock()
		defer rl.mu.Unlock()
		if rl.w == nil {
			return nil
		}
		return rl.w.flush()
	})
}

// Sync flushes and fsyncs every open segment.
func (d *Dir) Sync() error {
	return d.forEachRelLog(func(rl *relLog) error {
		rl.mu.Lock()
		defer rl.mu.Unlock()
		if rl.w == nil {
			return nil
		}
		return rl.w.sync()
	})
}

// Close syncs and closes every open segment. The Dir must not be appended
// to afterwards.
func (d *Dir) Close() error {
	return d.forEachRelLog(func(rl *relLog) error {
		rl.mu.Lock()
		defer rl.mu.Unlock()
		if rl.w == nil {
			return nil
		}
		err := rl.w.close()
		rl.w = nil
		return err
	})
}

// Attach installs append hooks on ins so every subsequent insert — into
// existing relations and relations created later by Add — is journaled to
// this Dir. ins should be the instance Recover returned (or an empty one);
// attaching an instance whose contents exceed the journal makes the next
// insert fail with a journal-gap error rather than silently diverging.
// Must be called before ins is shared across goroutines.
func (d *Dir) Attach(ins *rel.Instance) {
	ins.SetAppendHook(func(pred string, arity int) rel.AppendHook {
		d.mu.Lock()
		rl := d.rels[pred]
		if rl == nil {
			rl = &relLog{d: d, pred: pred, arity: arity}
			d.rels[pred] = rl
		}
		d.mu.Unlock()
		if rl.arity != arity {
			mismatch := fmt.Errorf("store: relation %s journaled with %d columns, attached with %d",
				pred, rl.arity, arity)
			return func(rel.Tuple, uint64) error { return mismatch }
		}
		return rl.append
	})
}

// RelRecovery describes one relation's replay outcome.
type RelRecovery struct {
	// Pred and Arity identify the recovered relation.
	Pred  string
	Arity int
	// Tuples is the number of tuples replayed; Gen the recovered
	// generation (equal to Tuples).
	Tuples int
	Gen    uint64
	// Segments is the number of segment files read.
	Segments int
	// TruncatedBytes counts bytes cut from torn segment tails.
	TruncatedBytes int64
}

// Recover replays every relation's segments into a fresh instance and
// registers the recovered generations so subsequent appends continue the
// journal seamlessly. Replay order is the original insert order, so the
// result is bit-identical to the journaled instance: same tuples, same
// log order, same generations. The int parameter is unused; it remains
// only so existing callers keep compiling.
//
// A torn or garbled tail in a relation's final segment is truncated at the
// last intact frame (the crash-window loss); the same defect in any earlier
// segment, a generation gap between segments, or a duplicated frame is
// corruption beyond the crash model and fails recovery. So is a segment of
// a foreign layout — a file named for a partition other than 0, or a
// header recording more than one partition: Recover fails naming the file
// rather than skip it or replay it in part.
func (d *Dir) Recover(int) (*rel.Instance, []RelRecovery, error) {
	start := time.Now()
	ins := rel.NewInstance()
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return nil, nil, err
	}
	var recs []RelRecovery
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		pred, err := unescapeRel(ent.Name())
		if err != nil {
			return nil, nil, fmt.Errorf("store: undecodable relation directory %q: %w", ent.Name(), err)
		}
		rec, err := d.recoverRelation(ins, pred, filepath.Join(d.root, ent.Name()))
		if err != nil {
			return nil, nil, err
		}
		if rec != nil {
			recs = append(recs, *rec)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Pred < recs[j].Pred })
	d.replayMicro.Set(time.Since(start).Microseconds())
	return ins, recs, nil
}

// OpenInstance is the whole startup sequence of a durable instance: open the
// journal at path, replay it (see Recover), attach the journal hooks, and
// merge seed's tuples — the facts
// a specification carries, nil for none — on top, journaled and deduplicated
// against the recovered data. The caller owns the returned Dir and closes it
// when done; on any failure after Open the Dir is closed here, because the
// merge may already have opened segment files.
func OpenInstance(path string, seed *rel.Instance) (*rel.Instance, *Dir, []RelRecovery, error) {
	d, err := Open(path, Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	ins, recs, err := d.Recover(0)
	if err != nil {
		return nil, nil, nil, errors.Join(fmt.Errorf("replaying %s: %w", path, err), d.Close())
	}
	d.Attach(ins)
	if seed != nil {
		for _, pred := range seed.Relations() {
			for _, t := range seed.Relation(pred).Tuples() {
				if _, err := ins.Add(pred, t); err != nil {
					return nil, nil, nil, errors.Join(fmt.Errorf("journaling %s: %w", pred, err), d.Close())
				}
			}
		}
	}
	return ins, d, recs, nil
}

// segFile is one parsed segment file name.
type segFile struct {
	name  string
	shard int
	genLo uint64
}

// segFileName names the segment starting at generation genLo. The "s0-"
// prefix is the partition number earlier layouts wrote; it is always 0.
func segFileName(genLo uint64) string {
	return fmt.Sprintf("s0-%016d.seg", genLo)
}

func parseSegFileName(name string) (segFile, bool) {
	var shard int
	var genLo uint64
	if !strings.HasSuffix(name, ".seg") {
		return segFile{}, false
	}
	if _, err := fmt.Sscanf(name, "s%d-%016d.seg", &shard, &genLo); err != nil || shard < 0 {
		return segFile{}, false
	}
	return segFile{name: name, shard: shard, genLo: genLo}, true
}

// recoverRelation replays one relation directory. It returns nil (and no
// error) when the directory holds no usable segments.
func (d *Dir) recoverRelation(ins *rel.Instance, pred, dir string) (*RelRecovery, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segFile
	for _, ent := range entries {
		sf, ok := parseSegFileName(ent.Name())
		if !ok {
			continue
		}
		if sf.shard != 0 {
			return nil, fmt.Errorf("store: %s: segment %s belongs to partition %d; only single-partition journals replay", pred, filepath.Join(dir, sf.name), sf.shard)
		}
		segs = append(segs, sf)
	}
	if len(segs) == 0 {
		return nil, nil
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].genLo < segs[j].genLo })
	// The header of the first readable segment fixes the relation's arity;
	// every other segment must agree.
	var hdr *segHeader
	rec := RelRecovery{Pred: pred}
	var r *rel.Relation
	var gen uint64
	for i, sf := range segs {
		last := i == len(segs)-1
		path := filepath.Join(dir, sf.name)
		if sf.genLo != gen {
			return nil, fmt.Errorf("store: %s: segment %s starts at generation %d, journal at %d (missing segment?)",
				pred, sf.name, sf.genLo, gen)
		}
		onHeader := func(h segHeader) error {
			if h.Rel != pred || h.Shard != 0 || h.GenLo != sf.genLo {
				return fmt.Errorf("store: %s: segment %s header disagrees with its name", pred, path)
			}
			if h.Shards != 1 {
				return fmt.Errorf("store: %s: segment %s records %d partitions; only single-partition journals replay", pred, path, h.Shards)
			}
			if hdr == nil {
				hdr = &h
				r = ins.EnsureRelation(pred, h.Arity)
				if r.Arity() != h.Arity {
					return fmt.Errorf("store: %s already exists with a different arity", pred)
				}
				rec.Arity = h.Arity
			} else if h.Arity != hdr.Arity {
				return fmt.Errorf("store: %s: segment %s disagrees on arity", pred, sf.name)
			}
			return nil
		}
		apply := func(t rel.Tuple) error {
			if len(t) != hdr.Arity {
				return fmt.Errorf("store: %s: replayed tuple %v has %d values, want %d", pred, t, len(t), hdr.Arity)
			}
			fresh, err := r.Insert(t)
			if err != nil {
				return err
			}
			if !fresh {
				return fmt.Errorf("store: %s: duplicated tuple %v in journal", pred, t)
			}
			return nil
		}
		sc, ioerr := scanSegment(path, onHeader, apply)
		if ioerr != nil {
			return nil, ioerr
		}
		gen = sf.genLo + uint64(sc.tuples)
		rec.Tuples += sc.tuples
		rec.Segments++
		if sc.err != nil {
			if !last {
				return nil, fmt.Errorf("store: %s: segment %s corrupt before the journal tail: %w", pred, sf.name, sc.err)
			}
			// Torn tail: cut the final segment back to its last intact
			// frame. If not even the header survived, drop the file.
			torn := tornBytes(path, sc)
			if err := truncateSegment(path, sc); err != nil {
				return nil, err
			}
			d.truncations.Add(1)
			rec.TruncatedBytes += torn
		}
	}
	if hdr == nil {
		// Every segment of the relation was unreadable garbage; nothing to
		// resurrect, nothing recovered.
		return nil, nil
	}
	if r.Version() != gen {
		return nil, fmt.Errorf("store: %s: replayed generation %d, relation at %d", pred, gen, r.Version())
	}
	rec.Gen = gen
	d.recovered.Add(uint64(rec.Tuples))
	// Continue the journal where the replay ended.
	d.mu.Lock()
	d.rels[pred] = &relLog{d: d, pred: pred, arity: hdr.Arity, count: gen}
	d.mu.Unlock()
	return &rec, nil
}

// truncateSegment applies the torn-tail policy to the final segment of a
// relation: cut back to the last intact frame, or remove the file entirely
// when not even the header frame survived.
func truncateSegment(path string, sc segScan) error {
	if !sc.hdrOK {
		return os.Remove(path)
	}
	return os.Truncate(path, sc.goodBytes)
}

// tornBytes reports how many bytes the torn-tail truncation for path cut
// (best effort: 0 if the file is already gone).
func tornBytes(path string, sc segScan) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	if !sc.hdrOK {
		return fi.Size()
	}
	return fi.Size() - sc.goodBytes
}

// escapeRel maps a relation name to a filesystem-safe directory name
// (reversible; '/' and '%' are escaped, and a leading '.' is escaped by
// hand so "." and ".." can never collide with directory navigation —
// url.PathEscape itself never emits %2E, so the mapping stays injective).
func escapeRel(pred string) string {
	esc := url.PathEscape(pred)
	if strings.HasPrefix(esc, ".") {
		esc = "%2E" + esc[1:]
	}
	return esc
}

func unescapeRel(name string) (string, error) {
	return url.PathUnescape(name)
}

// RegisterMetrics registers d's segment and replay counters on reg under
// the storage.* names.
func (d *Dir) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("storage.segments", &d.segments)
	reg.RegisterCounter("storage.bytes_written", &d.bytesOut)
	reg.RegisterCounter("storage.truncations", &d.truncations)
	reg.RegisterCounter("storage.recovered_tuples", &d.recovered)
	reg.RegisterGauge("storage.replay_micros", &d.replayMicro)
}
