// Package wal is the append-only write-ahead log behind the durable
// database (gsim.Open): one log file per storage shard, holding every
// acknowledged mutation since the last snapshot segment landed, so a
// crashed node recovers by loading segments and replaying logs instead of
// losing everything since the last manual save.
//
// # Framing
//
// A log is a sequence of self-delimiting frames:
//
//	[4B little-endian payload length][4B CRC-32C of payload][payload]
//
// The CRC covers the payload only; the length field is validated by a
// sanity ceiling (MaxRecordBytes) so a corrupt length cannot make the
// reader chase gigabytes of garbage. Record payloads (record.go) are
// self-contained — label strings travel inline — so a log replays into
// any dictionary, whatever shard count or label numbering the writing
// process used.
//
// # Torn-tail tolerance
//
// A crash mid-write leaves a torn tail: a truncated frame, a frame whose
// CRC does not match, or raw garbage. Scan finds the longest valid frame
// prefix; Open truncates the file to it before appending, and Replay
// simply stops there. Everything before the tear — every record whose
// Commit returned, under the always policy — survives; the tear itself
// was by construction never acknowledged, so dropping it is correct, not
// lossy. Corruption in the *middle* of a log (a flipped bit under a valid
// tail) also stops the scan at the corrupt frame: bytes past an
// untrusted frame boundary cannot be re-synchronised reliably, and a
// fsync-ordered writer never produces that state — it indicates media
// damage, which recovery surfaces by replaying short rather than
// guessing.
//
// # Group commit
//
// Append only frames the record into an in-memory pending buffer under
// the writer lock; Commit makes it durable according to the fsync
// policy. Under FsyncAlways, the first committer becomes the leader: it
// swaps out the whole pending buffer, writes and fsyncs it outside the
// lock, then wakes every waiter whose record the batch covered — N
// concurrent committers share one fsync instead of paying one each,
// which is what keeps per-record durability from serialising the sharded
// ingest path. FsyncInterval moves the fsync to a background ticker
// (bounded staleness, no per-commit wait), FsyncNever leaves it to the
// OS (fastest, crash loses the page cache).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"gsim/internal/faultfs"
	"gsim/internal/telemetry"
)

// Policy selects when committed records reach stable storage.
type Policy int

const (
	// FsyncAlways fsyncs before Commit returns (group-committed): an
	// acknowledged mutation survives kill -9. The default.
	FsyncAlways Policy = iota
	// FsyncInterval fsyncs on a background cadence: Commit returns after
	// the in-memory append, and a crash loses at most one interval.
	FsyncInterval
	// FsyncNever never fsyncs (except Sync and Close): durability is
	// whatever the OS page cache survives.
	FsyncNever
)

// String names the policy (the gsimd -fsync flag values).
func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy is the inverse of String.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (always|interval|never)", s)
}

// Options parameterise a Writer.
type Options struct {
	// Policy selects the fsync discipline (default FsyncAlways).
	Policy Policy
	// Interval is the FsyncInterval flush cadence (default 50ms).
	Interval time.Duration
	// Metrics, when non-nil, receives the writer's durability timings:
	// Append framing, leader write+fsync batches, and group-commit
	// waits. A database shares one instance across its per-shard
	// writers (and across checkpoint rotations), so the histograms
	// describe the whole log set.
	Metrics *telemetry.WALMetrics
	// FS is the filesystem seam (nil = the real OS). Tests inject a
	// faultfs.Injector here to make append/fsync failures deterministic.
	FS faultfs.FS
}

// ErrClosed reports an append or commit against a closed writer.
var ErrClosed = errors.New("wal: writer is closed")

// MaxRecordBytes bounds one record's payload — a length field beyond it
// is treated as corruption, not an allocation request, and Append refuses
// a longer payload. 64 MiB comfortably holds the largest graphs the text
// codec accepts.
const MaxRecordBytes = 64 << 20

const frameHeader = 8 // length + CRC

// flushThreshold bounds the pending buffer: once it grows past this,
// Append writes it through (without fsync) so non-always policies do not
// accumulate unbounded memory between syncs.
const flushThreshold = 1 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stats is a point-in-time snapshot of one writer's counters.
type Stats struct {
	// Bytes is the log's total size including not-yet-written pending
	// records.
	Bytes int64
	// Records counts every record appended to this log (including those
	// found on disk when the writer opened it).
	Records uint64
	// Unsynced counts appended records not yet known durable.
	Unsynced uint64
}

// Writer is one shard's append-only log. All methods are safe for
// concurrent use. Append/Commit are the mutation path: Append frames the
// record (callers serialise Appends per shard — the shard mutation lock
// does — so log order equals apply order), Commit blocks until the
// record is durable per policy.
type Writer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	f       faultfs.File
	pending []byte
	spare   []byte // recycled pending buffer
	seq     uint64 // records appended (monotonic, includes preexisting)
	synced  uint64 // records known durable
	size    int64  // bytes written to the file (excludes pending)
	syncing bool   // a leader is flushing outside the lock
	err     error  // sticky: first IO failure poisons the writer

	opts  Options
	stopc chan struct{} // interval flusher shutdown
	done  chan struct{}
}

// Open opens (creating if absent) the log at path for appending,
// truncating any torn tail first. The returned writer's record count
// starts at the number of valid records already on disk.
func Open(path string, opts Options) (*Writer, error) {
	if opts.Interval <= 0 {
		opts.Interval = 50 * time.Millisecond
	}
	f, err := faultfs.Or(opts.FS).OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	recs, valid, err := scan(f, nil)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	w := &Writer{f: f, seq: recs, synced: recs, size: valid, opts: opts}
	w.cond = sync.NewCond(&w.mu)
	if opts.Policy == FsyncInterval {
		w.stopc = make(chan struct{})
		w.done = make(chan struct{})
		go w.flusher(w.stopc)
	}
	return w, nil
}

// flusher is the FsyncInterval background loop.
func (w *Writer) flusher(stopc <-chan struct{}) {
	defer close(w.done)
	t := time.NewTicker(w.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-stopc:
			return
		case <-t.C:
			w.Sync()
		}
	}
}

// Append frames payload into the pending buffer and returns the record's
// sequence number, the token Commit takes. The payload is copied; callers
// may reuse it immediately.
func (w *Writer) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d limit", len(payload), MaxRecordBytes)
	}
	if w.opts.Metrics != nil {
		start := time.Now()
		defer func() { w.opts.Metrics.Append.Observe(time.Since(start)) }()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if w.pending == nil && w.spare != nil {
		w.pending, w.spare = w.spare[:0], nil
	}
	w.pending = append(w.pending, hdr[:]...)
	w.pending = append(w.pending, payload...)
	w.seq++
	seq := w.seq
	if len(w.pending) >= flushThreshold && !w.syncing {
		w.flushLocked(false)
		if w.err != nil {
			return 0, w.err
		}
	}
	return seq, nil
}

// Commit blocks until record seq is durable under the writer's policy:
// group-committed fsync for FsyncAlways, an immediate return otherwise
// (the background cadence or the OS owns durability then).
func (w *Writer) Commit(seq uint64) error {
	if w.opts.Policy != FsyncAlways {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.synced >= seq {
			return nil
		}
		return w.err // nil unless the writer is poisoned
	}
	if w.opts.Metrics != nil {
		start := time.Now()
		defer func() { w.opts.Metrics.Wait.Observe(time.Since(start)) }()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.synced >= seq {
			return nil // durable — even if the writer failed later
		}
		if w.err != nil {
			return w.err
		}
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.flushLocked(true)
	}
}

// Sync forces pending records to stable storage regardless of policy.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.err != nil && !errors.Is(w.err, ErrClosed) {
			return w.err
		}
		target := w.seq
		if w.synced >= target {
			return nil
		}
		if w.err != nil {
			return w.err // closed with unsynced records (Close syncs first, so: poisoned)
		}
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.flushLocked(true)
	}
}

// flushLocked is the group-commit leader step: swap out the pending
// buffer, write (and optionally fsync) it outside the lock, publish the
// new durable horizon and wake every waiter. The caller holds w.mu; it
// is reacquired before returning.
func (w *Writer) flushLocked(fsync bool) {
	w.syncing = true
	buf := w.pending
	w.pending = nil
	target := w.seq
	w.mu.Unlock()
	var err error
	flushStart := time.Now()
	if len(buf) > 0 {
		_, err = w.f.Write(buf)
	}
	if err == nil && fsync {
		err = w.f.Sync()
	}
	if fsync && w.opts.Metrics != nil {
		w.opts.Metrics.Fsync.Observe(time.Since(flushStart))
	}
	w.mu.Lock()
	w.syncing = false
	if err != nil {
		if w.err == nil {
			w.err = fmt.Errorf("wal: flush: %w", err)
		}
	} else {
		w.size += int64(len(buf))
		if fsync && target > w.synced {
			w.synced = target
		}
	}
	if w.spare == nil && cap(buf) > 0 && cap(buf) <= 1<<20 {
		w.spare = buf[:0]
	}
	w.cond.Broadcast()
}

// Stats snapshots the writer's counters.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		Bytes:    w.size + int64(len(w.pending)),
		Records:  w.seq,
		Unsynced: w.seq - w.synced,
	}
}

// Close syncs outstanding records and closes the file. Further appends
// fail with ErrClosed; commits for records synced before the close still
// succeed. Close is idempotent.
func (w *Writer) Close() error {
	if w.stopc != nil {
		w.mu.Lock()
		stopc := w.stopc
		w.stopc = nil
		w.mu.Unlock()
		if stopc != nil {
			close(stopc)
			<-w.done
		}
	}
	syncErr := w.Sync()
	w.mu.Lock()
	defer w.mu.Unlock()
	if errors.Is(w.err, ErrClosed) {
		return nil
	}
	if w.err == nil {
		w.err = ErrClosed
	}
	w.cond.Broadcast()
	if err := w.f.Close(); err != nil && syncErr == nil {
		syncErr = err
	}
	if syncErr != nil && !errors.Is(syncErr, ErrClosed) {
		return syncErr
	}
	return nil
}

// scan walks the frames of an open log from the start, calling fn (when
// non-nil) with each valid payload, and returns the record count and the
// byte offset of the longest valid prefix — the torn-tail boundary.
// Payloads handed to fn are only valid during the call.
func scan(f faultfs.File, fn func(payload []byte) error) (records uint64, valid int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	var (
		hdr [frameHeader]byte
		buf []byte
		off int64
	)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return records, off, nil // clean EOF or torn header: stop here
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n > MaxRecordBytes {
			return records, off, nil // corrupt length: treat as tail
		}
		if uint32(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(f, buf); err != nil {
			return records, off, nil // torn payload
		}
		if crc32.Checksum(buf, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return records, off, nil // bit rot or torn write
		}
		if fn != nil {
			if err := fn(buf); err != nil {
				return records, off, err
			}
		}
		records++
		off += int64(frameHeader) + int64(len(buf))
	}
}

// Replay streams every valid record payload of the log at path to fn,
// stopping cleanly at a torn or corrupt tail, and reports how many
// records it delivered. A missing file replays zero records: a shard
// that never logged is a shard with nothing to recover.
func Replay(path string, fn func(payload []byte) error) (uint64, error) {
	return ReplayFS(nil, path, fn)
}

// ReplayFS is Replay through an injectable filesystem (nil = the real
// OS), so recovery-under-fault tests exercise the same code path the
// database does.
func ReplayFS(fs faultfs.FS, path string, fn func(payload []byte) error) (uint64, error) {
	f, err := faultfs.Or(fs).Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	n, _, err := scan(f, fn)
	return n, err
}
