package gsim

import (
	"errors"
	"path/filepath"
	"time"

	"gsim/internal/faultfs"
	"gsim/internal/shard"
	"gsim/internal/wal"
)

// FsyncPolicy selects when a durable database's write-ahead log reaches
// stable storage — see the wal package for the exact guarantees.
type FsyncPolicy = wal.Policy

// Re-exported fsync policies (gsimd's -fsync flag values).
const (
	// FsyncAlways group-commits an fsync before every acknowledged
	// mutation returns: a mutation the API acknowledged survives kill -9.
	// The default.
	FsyncAlways = wal.FsyncAlways
	// FsyncInterval fsyncs on a background cadence; a crash loses at most
	// the last interval of acknowledged mutations.
	FsyncInterval = wal.FsyncInterval
	// FsyncNever leaves durability to the OS page cache.
	FsyncNever = wal.FsyncNever
)

// ParseFsyncPolicy parses "always", "interval" or "never" — the values
// of gsimd's -fsync flag.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return wal.ParsePolicy(s) }

// ErrNotDurable reports a persistence operation (Checkpoint) against an
// in-memory database — one built with New instead of Open.
var ErrNotDurable = errors.New("gsim: database is not durable (opened with New, not Open)")

// ErrClosed reports an operation against a database whose Close has run.
var ErrClosed = errors.New("gsim: database is closed")

// Option configures New and Open. The zero configuration is an
// in-memory/durable database named after its directory with GOMAXPROCS
// shards, an always-fsync WAL, and a 64 MiB auto-checkpoint threshold.
type Option func(*dbOptions)

type dbOptions struct {
	name       string
	nameSet    bool
	shards     int
	shardsSet  bool
	policy     wal.Policy
	noWAL      bool
	importPath string
	autoBytes  int64
	fs         faultfs.FS    // nil = the real OS
	probeMin   time.Duration // recovery probe backoff floor
	probeMax   time.Duration // recovery probe backoff ceiling
}

func applyOptions(opts []Option) dbOptions {
	o := dbOptions{autoBytes: 64 << 20, probeMin: 100 * time.Millisecond, probeMax: 5 * time.Second}
	for _, opt := range opts {
		opt(&o)
	}
	if o.probeMin <= 0 {
		o.probeMin = 100 * time.Millisecond
	}
	if o.probeMax < o.probeMin {
		o.probeMax = o.probeMin
	}
	return o
}

// WithName names the database (defaults to the directory base name for
// Open, "db" for New).
func WithName(name string) Option {
	return func(o *dbOptions) { o.name = name; o.nameSet = true }
}

// WithShards sets the storage shard count explicitly (n ≤ 0 selects
// GOMAXPROCS). Opening an existing directory with a different shard
// count re-shards the store during recovery and checkpoints the new
// layout immediately; without this option Open adopts the directory's
// previous count.
func WithShards(n int) Option {
	return func(o *dbOptions) { o.shards = n; o.shardsSet = true }
}

// WithFsyncPolicy selects the WAL fsync discipline (default FsyncAlways).
func WithFsyncPolicy(p FsyncPolicy) Option {
	return func(o *dbOptions) { o.policy = p }
}

// WithoutWAL disables the write-ahead log: mutations are durable only up
// to the last Checkpoint (explicit or Close's final one). For bulk loads
// where re-running the load beats paying per-mutation journaling.
func WithoutWAL() Option {
	return func(o *dbOptions) { o.noWAL = true }
}

// WithImport seeds a fresh data directory from a .gsim text file (the
// SaveText format). It is consulted only when the directory has no
// manifest yet; once the first checkpoint lands, reopening with the same
// option is a no-op, so a deployment can keep passing it across
// restarts.
func WithImport(path string) Option {
	return func(o *dbOptions) { o.importPath = path }
}

// WithAutoCheckpoint sets the WAL-size threshold (total bytes across
// shards) at which the database's background loop, checking once a
// second while the database is healthy, snapshots and truncates the logs.
// Zero or negative disables automatic checkpointing; the default is
// 64 MiB.
func WithAutoCheckpoint(bytes int64) Option {
	return func(o *dbOptions) { o.autoBytes = bytes }
}

// WithFS routes every filesystem operation of the durability layer (WAL
// appends, segment and manifest writes, recovery reads, cleanup) through
// fs. Production never needs it; fault-injection tests pass a
// faultfs.Injector to make I/O failures deterministic. nil selects the
// real OS.
func WithFS(fs faultfs.FS) Option {
	return func(o *dbOptions) { o.fs = fs }
}

// WithRecoveryBackoff bounds the jittered exponential backoff on which a
// degraded database retries a checkpoint (the recovery probe): the first
// retry waits about min, doubling up to max. The defaults (100ms, 5s) suit real disks; tests shrink them to
// keep fault-recovery cycles fast.
func WithRecoveryBackoff(min, max time.Duration) Option {
	return func(o *dbOptions) { o.probeMin, o.probeMax = min, max }
}

// New creates an in-memory database — no directory, no WAL, no
// checkpoints (Checkpoint returns ErrNotDurable; Close only stops the
// shards' postings timers and waits for builds in flight).
func New(opts ...Option) *Database {
	o := applyOptions(opts)
	if o.name == "" {
		o.name = "db"
	}
	return &Database{store: shard.New(o.name, shard.Shards(o.shards))}
}

// Open opens (creating if needed) the durable database stored in dir:
// per-shard snapshot segments plus per-shard write-ahead logs, tied by a
// manifest. Recovery loads the segments in parallel, replays each
// shard's log past its segment, rebuilds the dictionaries and prefilter
// state, and — when anything was replayed or the shard count changed —
// checkpoints the recovered state immediately, so a clean Open always
// leaves the directory compact. See doc.go, "The durability layer".
//
//	db, err := gsim.Open("/var/lib/gsim", gsim.WithShards(8))
//	defer db.Close()
func Open(dir string, opts ...Option) (*Database, error) {
	o := applyOptions(opts)
	if o.name == "" {
		o.name = filepath.Base(dir)
	}
	return openDurable(dir, o)
}
