package gsim

import (
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gsim/internal/db"
	"gsim/internal/faultfs"
	"gsim/internal/graph"
	"gsim/internal/shard"
	"gsim/internal/wal"
)

// The durability layer behind Open: a data directory holding
//
//	MANIFEST            gob: epoch, shard count, label dictionary,
//	                    segment list, WAL generation
//	seg-<shard>-<gen>.bin   one snapshot segment per shard
//	wal-<shard>-<gen>.log   one append-only log per shard
//
// The manifest's Gen is the recovery contract: its segments reflect
// every mutation journaled before generation Gen began, so recovery
// loads the segments (in parallel) and replays every WAL generation
// ≥ Gen it finds, in ascending generation order — a barrier between
// generations, parallelism across the per-shard files inside one,
// sequential within each file. A given graph ID hashes to the same
// shard, hence the same log file, for as long as the shard count is
// fixed (one generation never spans a shard-count change), so this
// schedule replays every ID's records in exactly their append order.
//
// A checkpoint rotates each shard's log to generation G+1 inside that
// shard's write lock while snapshotting its entries (shard.CutRotate),
// writes the snapshots as segments, fsyncs them, atomically replaces the
// manifest (tmp + rename + directory fsync), and only then deletes the
// superseded logs and segments. Every crash window leaves a directory
// one of the two manifests describes exactly; stale files from a crash
// between manifest and deletion are ignored by the Gen rule and removed
// by the next Open.

// manifestName is the manifest file inside a data directory.
const manifestName = "MANIFEST"

// manifestVersion guards the gob schema.
const manifestVersion = 1

// manifest ties a directory's segments and logs together.
type manifest struct {
	Version  int
	Name     string
	Epoch    uint64   // composite Epoch() at checkpoint time
	NextID   uint64   // ID sequence floor for the recovered store
	Shards   int      // shard count the segments and logs are laid out for
	Gen      uint64   // first WAL generation NOT covered by the segments
	Labels   []string // label dictionary, index = interned ID
	Segments []string // segment file names, one per shard
}

func segFile(shard int, gen uint64) string { return fmt.Sprintf("seg-%d-%d.bin", shard, gen) }
func walFile(shard int, gen uint64) string { return fmt.Sprintf("wal-%d-%d.log", shard, gen) }

// durable is a Database's persistence state.
type durable struct {
	dir  string
	opts dbOptions
	fs   faultfs.FS // resolved filesystem seam (never nil)
	ws   *walSet    // nil when opened WithoutWAL

	pmu    sync.Mutex // serialises checkpoint / close against each other
	gen    uint64     // current WAL generation (writers + next manifest)
	closed bool

	stopc    chan struct{} // auto-checkpointer lifecycle
	done     chan struct{}
	stopOnce sync.Once

	smu         sync.Mutex // guards the published stats below
	segments    int
	checkpoints uint64
	lastEpoch   uint64
	lastBytes   int64
	lastDur     time.Duration
}

// walSet is the shard.Journal implementation: one wal.Writer per shard,
// swapped under the owning shard's write lock at every checkpoint
// rotation. The encode buffer pool keeps steady-state journaling
// allocation-light.
type walSet struct {
	dir     string
	opts    wal.Options
	dict    *graph.Labels
	writers []atomic.Pointer[wal.Writer]
	bufs    sync.Pool
	// onFault, when set, receives every journaling I/O error (a failed
	// append, flush or group-commit fsync) — the hook that flips the
	// owning database into degraded mode. Closed-writer errors during
	// rotation or shutdown are lifecycle, not faults, and are excluded.
	onFault func(error)
}

func newWalSet(dir string, n int, opts wal.Options, dict *graph.Labels) *walSet {
	return &walSet{
		dir:     dir,
		opts:    opts,
		dict:    dict,
		writers: make([]atomic.Pointer[wal.Writer], n),
		bufs:    sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }},
	}
}

// Append journals one mutation record to shard i's log. Called inside
// shard i's critical section (see shard.Journal).
func (s *walSet) Append(i int, op wal.Op, id uint64, g graph.Packed) (shard.Token, error) {
	w := s.writers[i].Load()
	if w == nil {
		return shard.Token{}, fmt.Errorf("gsim: shard %d has no journal writer", i)
	}
	bp := s.bufs.Get().(*[]byte)
	buf := wal.AppendPacked((*bp)[:0], op, id, g, s.dict)
	seq, err := w.Append(buf)
	*bp = buf
	s.bufs.Put(bp)
	if err != nil {
		s.fault(err)
		return shard.Token{}, err
	}
	return shard.Token{Seq: seq, H: w}, nil
}

// Wait blocks until the journaled record is durable under the policy.
func (s *walSet) Wait(t shard.Token) error {
	err := t.H.(*wal.Writer).Commit(t.Seq)
	if err != nil {
		s.fault(err)
	}
	return err
}

// fault reports a journaling error to the health hook, filtering the
// lifecycle case (a writer closed by rotation or shutdown).
func (s *walSet) fault(err error) {
	if s.onFault != nil && !errors.Is(err, wal.ErrClosed) {
		s.onFault(err)
	}
}

// rotate swaps shard i's writer to a fresh generation-gen log, returning
// the superseded writer (nil at first rotation). Called inside shard i's
// write lock, so no Append races the swap.
func (s *walSet) rotate(i int, gen uint64) (*wal.Writer, error) {
	w, err := wal.Open(filepath.Join(s.dir, walFile(i, gen)), s.opts)
	if err != nil {
		return nil, err
	}
	return s.writers[i].Swap(w), nil
}

// stats sums the live writers' counters.
func (s *walSet) stats() (bytes int64, records, unsynced uint64) {
	for i := range s.writers {
		if w := s.writers[i].Load(); w != nil {
			st := w.Stats()
			bytes += st.Bytes
			records += st.Records
			unsynced += st.Unsynced
		}
	}
	return bytes, records, unsynced
}

// closeAll closes every live writer, keeping the first error.
func (s *walSet) closeAll() error {
	var first error
	for i := range s.writers {
		if w := s.writers[i].Load(); w != nil {
			if err := w.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// openDurable is Open's implementation: fresh-directory initialisation
// or manifest-driven recovery.
func openDurable(dir string, o dbOptions) (*Database, error) {
	fs := faultfs.Or(o.fs)
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("gsim: creating data dir: %w", err)
	}
	man, err := readManifest(fs, dir)
	if err != nil {
		return nil, err
	}
	du := &durable{dir: dir, opts: o, fs: fs}
	var d *Database
	if man == nil {
		d, err = initFresh(dir, o, du)
	} else {
		d, err = recover_(dir, o, du, man)
	}
	if err != nil {
		if du.ws != nil {
			du.ws.closeAll()
		}
		return nil, err
	}
	// Arm the health machine only once the database is fully built: a
	// journaling fault from here on flips it degraded and starts the
	// recovery probe (failures during Open surface as Open errors).
	d.health.stopc = make(chan struct{})
	if du.ws != nil {
		du.ws.onFault = d.fault
	}
	d.startCheckpointer()
	return d, nil
}

// initFresh lays out a new data directory: empty store (or a text
// import), first checkpoint, generation-1 logs.
func initFresh(dir string, o dbOptions, du *durable) (*Database, error) {
	n := shard.Shards(o.shards)
	d := &Database{store: shard.New(o.name, n), dur: du}
	if o.importPath != "" {
		if err := importText(d, o.importPath); err != nil {
			return nil, err
		}
	}
	if !o.noWAL {
		du.ws = newWalSet(dir, n, wal.Options{Policy: o.policy, Metrics: &d.walTele, FS: o.fs}, d.store.Dict())
		d.store.SetJournal(du.ws)
	}
	// First checkpoint: rotation creates the generation-1 logs, segments
	// capture the (possibly imported) contents, the manifest makes the
	// directory recoverable before Open returns.
	if _, err := du.checkpoint(d.store, d.epoch); err != nil {
		return nil, err
	}
	return d, nil
}

// importText seeds a fresh durable database from a .gsim text file;
// the caller's first checkpoint makes it durable.
func importText(d *Database, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("gsim: import: %w", err)
	}
	defer f.Close()
	if _, err := d.LoadText(f); err != nil {
		return fmt.Errorf("gsim: import %s: not .gsim text: %w", path, err)
	}
	return nil
}

// recover_ rebuilds a Database from a manifest-described directory:
// parallel segment load, generation-ordered WAL replay, one postings
// build per shard (so Open returns complete postings), then either a
// compacting checkpoint (something was replayed, or the shard count
// changed) or a fresh-generation manifest over the existing segments.
func recover_(dir string, o dbOptions, du *durable, man *manifest) (*Database, error) {
	n := man.Shards
	if o.shardsSet {
		n = shard.Shards(o.shards)
	}
	name := man.Name
	if o.nameSet {
		name = o.name
	}
	if len(man.Labels) == 0 || man.Labels[0] != graph.EpsilonName {
		return nil, fmt.Errorf("gsim: corrupt manifest: label dictionary does not start with ε")
	}
	dict := graph.NewLabels()
	for i, s := range man.Labels {
		if id := dict.Intern(s); int(id) != i {
			return nil, fmt.Errorf("gsim: corrupt manifest: duplicate label %q at %d", s, i)
		}
	}
	store := shard.NewWithDictionaries(name, n, dict, db.NewBranchDict())

	// Parallel segment load: decode and prepare each graph as it comes
	// (packed, its branch multiset interned), then replay the segment as
	// one batch.
	errs := make([]error, len(man.Segments))
	var wg sync.WaitGroup
	for i, seg := range man.Segments {
		wg.Add(1)
		go func(i int, seg string) {
			defer wg.Done()
			f, err := du.fs.Open(filepath.Join(dir, seg))
			if err != nil {
				errs[i] = fmt.Errorf("gsim: missing segment %s: %w", seg, err)
				return
			}
			defer f.Close()
			var batch []shard.Mutation
			if err := db.ReadSegmentEach(f, len(man.Labels), func(k, n int, id uint64, g *graph.Graph) error {
				if k == 0 {
					batch = make([]shard.Mutation, 0, n)
				}
				batch = append(batch, shard.Mutation{Op: wal.OpStore, ID: id, P: store.Prepare(g)})
				return nil
			}); err != nil {
				errs[i] = fmt.Errorf("gsim: segment %s: %w", seg, err)
				return
			}
			if id, dup := store.Replay(batch); dup {
				errs[i] = fmt.Errorf("gsim: segment %s: duplicate graph ID %d", seg, id)
			}
		}(i, seg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	store.EnsureSeq(man.NextID)

	// Replay WAL generations ≥ man.Gen in order; parallel across the
	// per-shard files of one generation, sequential within each file.
	gens, byGen, err := walGens(dir)
	if err != nil {
		return nil, err
	}
	var replayed atomic.Uint64
	maxGen := man.Gen
	for _, g := range gens {
		if g > maxGen {
			maxGen = g
		}
		if g < man.Gen {
			continue // superseded by the segments; removed below
		}
		files := byGen[g]
		ferrs := make([]error, len(files))
		var fwg sync.WaitGroup
		for i, path := range files {
			fwg.Add(1)
			go func(i int, path string) {
				defer fwg.Done()
				// One record per Replay, so the store's epoch counts the
				// replayed records that changed it.
				var one [1]shard.Mutation
				nrec, err := wal.ReplayFS(du.fs, path, func(payload []byte) error {
					rec, err := wal.DecodeRecord(payload, dict)
					if err != nil {
						return err
					}
					one[0] = shard.Mutation{Op: rec.Op, ID: rec.ID}
					if rec.Op != wal.OpDelete {
						one[0].P = store.Prepare(rec.G)
					}
					store.Replay(one[:])
					return nil
				})
				if err != nil {
					ferrs[i] = fmt.Errorf("gsim: replaying %s: %w", filepath.Base(path), err)
				}
				replayed.Add(nrec)
			}(i, path)
		}
		fwg.Wait()
		for _, err := range ferrs {
			if err != nil {
				return nil, err
			}
		}
	}
	store.BuildPostings()

	d := &Database{store: store, dur: du, epoch: man.Epoch}
	if !o.noWAL {
		du.ws = newWalSet(dir, n, wal.Options{Policy: o.policy, Metrics: &d.walTele, FS: o.fs}, dict)
	}
	nextGen := maxGen + 1
	if replayed.Load() > 0 || n != man.Shards {
		// The segments no longer describe the store exactly (or are laid
		// out for another shard count): compact immediately so Open never
		// leaves replay work for the next crash.
		du.gen = nextGen - 1
		if du.ws != nil {
			d.store.SetJournal(du.ws)
		}
		if _, err := du.checkpoint(store, d.epoch); err != nil {
			return nil, err
		}
		return d, nil
	}
	// Clean recovery: keep the segments, start a fresh log generation
	// above everything on disk, and re-point the manifest at it.
	if du.ws != nil {
		for i := 0; i < n; i++ {
			if _, err := du.ws.rotate(i, nextGen); err != nil {
				return nil, err
			}
		}
		d.store.SetJournal(du.ws)
	}
	man2 := *man
	man2.Gen = nextGen
	man2.NextID = store.NextID()
	if err := writeManifest(du.fs, dir, &man2); err != nil {
		return nil, err
	}
	du.gen = nextGen
	du.smu.Lock()
	du.segments = len(man2.Segments)
	du.smu.Unlock()
	cleanupDir(du.fs, dir, nextGen, man2.Segments)
	return d, nil
}

// walGens lists the directory's WAL files grouped by generation,
// generations ascending.
func walGens(dir string) ([]uint64, map[uint64][]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*-*.log"))
	if err != nil {
		return nil, nil, err
	}
	byGen := make(map[uint64][]string)
	for _, p := range paths {
		var sh int
		var g uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "wal-%d-%d.log", &sh, &g); err != nil {
			continue
		}
		byGen[g] = append(byGen[g], p)
	}
	gens := make([]uint64, 0, len(byGen))
	for g := range byGen {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, byGen, nil
}

// CheckpointStats reports what one checkpoint wrote.
type CheckpointStats struct {
	// Epoch is the database epoch the snapshot corresponds to.
	Epoch uint64
	// Generation is the WAL generation the checkpoint opened.
	Generation uint64
	// Segments is the number of segment files written.
	Segments int
	// BytesWritten is the total segment payload.
	BytesWritten int64
	// Duration is the wall time of the checkpoint.
	Duration time.Duration
}

// Checkpoint forces a snapshot: per-shard segments are written in
// parallel from a consistent cut, the manifest moves to a fresh WAL
// generation, and the superseded logs are deleted — bounding both
// recovery time and disk growth. Safe (and serialised) against
// concurrent mutations and the background checkpointer. Returns
// ErrNotDurable for in-memory databases and ErrClosed after Close.
func (d *Database) Checkpoint() (CheckpointStats, error) {
	if d.dur == nil {
		return CheckpointStats{}, ErrNotDurable
	}
	d.dur.pmu.Lock()
	defer d.dur.pmu.Unlock()
	if d.dur.closed {
		return CheckpointStats{}, ErrClosed
	}
	d.mu.RLock()
	epoch := d.epoch
	d.mu.RUnlock()
	st, err := d.dur.checkpoint(d.store, epoch)
	// A successful checkpoint is the recovery action: every shard is on
	// fresh logs and the segments capture the whole store, so it clears a
	// degraded state whoever ran it — the background probe or an
	// operator's POST /v1/admin/checkpoint. A failure (re-)faults.
	d.noteCheckpoint(err)
	return st, err
}

// checkpoint is the engine behind Checkpoint, initFresh and recovery;
// the caller holds du.pmu (or owns the database exclusively during
// construction).
func (du *durable) checkpoint(store *shard.Map, dbEpoch uint64) (CheckpointStats, error) {
	start := time.Now()
	newGen := du.gen + 1
	// Advance the generation now, not after the manifest lands: once any
	// shard rotates, its writer owns the generation-newGen file, and a
	// failed checkpoint's retry must pick a fresh generation rather than
	// reopen files live writers still hold. Recovery replays every
	// generation ≥ the manifest's in order, so skipped or un-manifested
	// generations are harmless.
	du.gen = newGen
	var olds []*wal.Writer
	cuts, storeEpoch, err := store.CutRotate(func(i int) error {
		if du.ws == nil {
			return nil
		}
		old, rerr := du.ws.rotate(i, newGen)
		if rerr == nil && old != nil {
			olds = append(olds, old)
		}
		return rerr
	})
	if err != nil {
		closeWriters(olds)
		return CheckpointStats{}, fmt.Errorf("gsim: checkpoint rotation: %w", err)
	}
	// NextID after the cut: every ID in the cut is below it, and records
	// in the new generation re-raise the sequence on replay anyway.
	nextID := store.NextID()

	// Segments in parallel, fsynced before the manifest references them.
	segs := make([]string, len(cuts))
	serrs := make([]error, len(cuts))
	var bytes atomic.Int64
	var wg sync.WaitGroup
	for i := range cuts {
		segs[i] = segFile(i, newGen)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := writeSegmentFile(du.fs, filepath.Join(du.dir, segs[i]), cuts[i])
			serrs[i] = err
			bytes.Add(n)
		}(i)
	}
	wg.Wait()
	for _, err := range serrs {
		if err != nil {
			closeWriters(olds)
			return CheckpointStats{}, fmt.Errorf("gsim: checkpoint segment: %w", err)
		}
	}

	// The dictionary is dumped after the cut: it only grows, so it covers
	// every label the segments reference (a superset is harmless — the
	// extra labels simply intern on recovery).
	dict := store.Dict()
	labels := make([]string, dict.Len())
	for id := range labels {
		labels[id] = dict.Name(graph.ID(id))
	}
	man := &manifest{
		Version:  manifestVersion,
		Name:     store.Name(),
		Epoch:    dbEpoch + storeEpoch,
		NextID:   nextID,
		Shards:   len(cuts),
		Gen:      newGen,
		Labels:   labels,
		Segments: segs,
	}
	if err := writeManifest(du.fs, du.dir, man); err != nil {
		closeWriters(olds)
		return CheckpointStats{}, err
	}

	// The manifest no longer references the old generation: retire it.
	// Closing an old writer syncs it first, so in-flight Commit waiters
	// from before the rotation still resolve.
	closeWriters(olds)
	cleanupDir(du.fs, du.dir, newGen, segs)

	st := CheckpointStats{
		Epoch:        man.Epoch,
		Generation:   newGen,
		Segments:     len(segs),
		BytesWritten: bytes.Load(),
		Duration:     time.Since(start),
	}
	du.smu.Lock()
	du.segments = len(segs)
	du.checkpoints++
	du.lastEpoch = st.Epoch
	du.lastBytes = st.BytesWritten
	du.lastDur = st.Duration
	du.smu.Unlock()
	return st, nil
}

// closeWriters retires a batch of superseded WAL writers, ignoring
// errors: each Close syncs first, and a sync failure on an
// already-replaced writer changes nothing recovery relies on.
func closeWriters(ws []*wal.Writer) {
	for _, w := range ws {
		w.Close()
	}
}

// writeSegmentFile writes and fsyncs one segment, reporting its size.
func writeSegmentFile(fs faultfs.FS, path string, entries []*db.Entry) (int64, error) {
	f, err := fs.Create(path)
	if err != nil {
		return 0, err
	}
	if err := db.WriteSegment(f, entries); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	info, serr := f.Stat()
	if err := f.Close(); err != nil {
		return 0, err
	}
	if serr != nil {
		return 0, serr
	}
	return info.Size(), nil
}

// readManifest loads the directory's manifest, (nil, nil) when absent.
func readManifest(fs faultfs.FS, dir string) (*manifest, error) {
	f, err := fs.Open(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	var man manifest
	if err := gob.NewDecoder(f).Decode(&man); err != nil {
		return nil, fmt.Errorf("gsim: corrupt manifest: %w", err)
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("gsim: manifest version %d not supported (want %d)", man.Version, manifestVersion)
	}
	if man.Shards <= 0 || len(man.Segments) != man.Shards {
		return nil, fmt.Errorf("gsim: corrupt manifest: %d segments for %d shards", len(man.Segments), man.Shards)
	}
	// Recovery opens every listed segment inside dir and installs its
	// graphs: a name that leaves dir would read outside it, and a name
	// listed twice would install the same IDs twice.
	seen := make(map[string]bool, len(man.Segments))
	for _, s := range man.Segments {
		if s == "" || s == "." || s == ".." || filepath.Base(s) != s {
			return nil, fmt.Errorf("gsim: corrupt manifest: segment name %q is not a plain file name", s)
		}
		if seen[s] {
			return nil, fmt.Errorf("gsim: corrupt manifest: segment %q listed twice", s)
		}
		seen[s] = true
	}
	return &man, nil
}

// writeManifest atomically replaces the manifest: tmp file, fsync,
// rename, directory fsync.
func writeManifest(fs faultfs.FS, dir string, man *manifest) error {
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("gsim: writing manifest: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(man); err != nil {
		f.Close()
		return fmt.Errorf("gsim: writing manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("gsim: writing manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("gsim: writing manifest: %w", err)
	}
	if err := fs.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("gsim: writing manifest: %w", err)
	}
	if df, err := os.Open(dir); err == nil {
		df.Sync() // best effort: the rename itself is already atomic
		df.Close()
	}
	return nil
}

// cleanupDir removes WAL files below the current generation and segment
// files the current manifest does not reference.
func cleanupDir(fs faultfs.FS, dir string, curGen uint64, keepSegs []string) {
	keep := make(map[string]bool, len(keepSegs))
	for _, s := range keepSegs {
		keep[s] = true
	}
	if wals, err := filepath.Glob(filepath.Join(dir, "wal-*-*.log")); err == nil {
		for _, p := range wals {
			var sh int
			var g uint64
			if _, err := fmt.Sscanf(filepath.Base(p), "wal-%d-%d.log", &sh, &g); err == nil && g < curGen {
				fs.Remove(p)
			}
		}
	}
	if segsOnDisk, err := filepath.Glob(filepath.Join(dir, "seg-*-*.bin")); err == nil {
		for _, p := range segsOnDisk {
			if !keep[filepath.Base(p)] {
				fs.Remove(p)
			}
		}
	}
}

// startCheckpointer launches the background checkpointer: once the WAL
// grows past the auto-checkpoint threshold, a snapshot lands and the
// logs truncate, bounding recovery time without any explicit call.
func (d *Database) startCheckpointer() {
	du := d.dur
	if du == nil || du.ws == nil || du.opts.autoBytes <= 0 {
		return
	}
	du.stopc = make(chan struct{})
	du.done = make(chan struct{})
	go func() {
		defer close(du.done)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-du.stopc:
				return
			case <-t.C:
				if bytes, _, _ := du.ws.stats(); bytes >= du.opts.autoBytes {
					// An error flips the database degraded (see Checkpoint);
					// the recovery probe owns the retries from there.
					d.Checkpoint()
				}
			}
		}
	}()
}

// Close stops the store's postings upkeep (its quiet timers and the
// builds in flight) and, for a durable database, checkpoints it one last
// time, closes every WAL writer and stops the background checkpointer.
// Mutations of a durable database fail after Close; an in-memory one
// stays usable, but its later writes leave its postings stale. Close is
// idempotent.
func (d *Database) Close() error {
	d.store.Close()
	du := d.dur
	if du == nil {
		return nil
	}
	d.health.stop()
	du.stopOnce.Do(func() {
		if du.stopc != nil {
			close(du.stopc)
			<-du.done
		}
	})
	du.pmu.Lock()
	defer du.pmu.Unlock()
	if du.closed {
		return nil
	}
	d.mu.RLock()
	epoch := d.epoch
	d.mu.RUnlock()
	_, cpErr := du.checkpoint(d.store, epoch)
	du.closed = true
	var closeErr error
	if du.ws != nil {
		closeErr = du.ws.closeAll()
	}
	if cpErr != nil {
		return cpErr
	}
	return closeErr
}

// PersistStats is the persistence block of the observability surface
// (/v1/stats): WAL pressure, checkpoint history, segment layout.
type PersistStats struct {
	// Durable reports whether the database was opened with Open.
	Durable bool `json:"durable"`
	// Dir is the data directory (empty for in-memory databases).
	Dir string `json:"dir,omitempty"`
	// WAL reports whether per-mutation journaling is on.
	WAL bool `json:"wal"`
	// Policy is the fsync policy ("always", "interval", "never").
	Policy string `json:"policy,omitempty"`
	// Generation is the current WAL generation.
	Generation uint64 `json:"generation,omitempty"`
	// Segments is the segment-file count of the last manifest.
	Segments int `json:"segments,omitempty"`
	// WALBytes is the total size of the live logs (including buffered
	// records); WALRecords counts their records; WALUnsynced counts
	// records appended but not yet known durable.
	WALBytes    int64  `json:"wal_bytes"`
	WALRecords  uint64 `json:"wal_records"`
	WALUnsynced uint64 `json:"wal_unsynced"`
	// Checkpoints counts completed checkpoints this process; the Last*
	// fields describe the most recent one.
	Checkpoints            uint64        `json:"checkpoints"`
	LastCheckpointEpoch    uint64        `json:"last_checkpoint_epoch"`
	LastCheckpointBytes    int64         `json:"last_checkpoint_bytes"`
	LastCheckpointDuration time.Duration `json:"last_checkpoint_duration_ns"`
}

// PersistStats reports the durability layer's counters. All zero (with
// Durable false) for in-memory databases.
func (d *Database) PersistStats() PersistStats {
	du := d.dur
	if du == nil {
		return PersistStats{}
	}
	st := PersistStats{Durable: true, Dir: du.dir, WAL: du.ws != nil}
	if du.ws != nil {
		st.Policy = du.ws.opts.Policy.String()
		st.WALBytes, st.WALRecords, st.WALUnsynced = du.ws.stats()
	}
	du.smu.Lock()
	st.Segments = du.segments
	st.Checkpoints = du.checkpoints
	st.LastCheckpointEpoch = du.lastEpoch
	st.LastCheckpointBytes = du.lastBytes
	st.LastCheckpointDuration = du.lastDur
	du.smu.Unlock()
	du.pmu.Lock()
	st.Generation = du.gen
	du.pmu.Unlock()
	return st
}
