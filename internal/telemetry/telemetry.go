package telemetry

import "sync/atomic"

// Stage identifies one phase of a search request for per-stage timing.
// The coarse stages (prepare, cut, scan, merge) are recorded on every
// search from a handful of clock reads per request. The fine stages
// (prefilter, score) split the scan's per-entry work and are recorded
// only for traced searches — sampling the clock twice per scanned entry
// is too expensive to leave on unconditionally.
type Stage uint8

const (
	// StagePrepare covers option validation, the consistent cut and
	// scorer preparation — everything before the scan can start. It
	// includes StageCut.
	StagePrepare Stage = iota
	// StageCut covers taking the consistent cut of the sharded store —
	// per-shard views plus their prefix sums, O(shards) — a sub-span of
	// StagePrepare, memoised between mutations.
	StageCut
	// StagePrefilter is the per-entry columnar prune check (traced
	// searches only).
	StagePrefilter
	// StageScore is the per-pair method scoring (traced searches only).
	StageScore
	// StageScan is the parallel scan wall time — prefilter and scoring
	// together, as the engine executes them.
	StageScan
	// StageMerge covers ordering and materialising the result after the
	// scan (sort by output key, top-K heap drain, batch gather).
	StageMerge
	// NumStages sizes per-stage arrays.
	NumStages = int(StageMerge) + 1
)

var stageNames = [NumStages]string{"prepare", "cut", "prefilter", "score", "scan", "merge"}

// String returns the stage's wire name ("prepare", "scan", ...).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// SearchMetrics aggregates search-side telemetry for one database: a
// latency histogram per stage plus whole-search counters. One instance
// lives on the Database and is shared by Search, SearchTopK,
// SearchBatch and the streaming consumers.
type SearchMetrics struct {
	Stage [NumStages]Histogram
	// Searches counts completed per-query scans (a batch of k queries
	// counts k).
	Searches atomic.Uint64
	// Scanned counts entries examined by completed scans (one entry
	// scored for k batch queries counts once).
	Scanned atomic.Uint64
	// Pruned counts entries the admissible prefilter discarded before
	// scoring, across all shards ((entry, query) pairs for batches).
	Pruned atomic.Uint64
	// Visited counts the entries whose columns or entry a scan read: the
	// candidates its branch postings named (every entry when a search has
	// no shared-branch bound).
	Visited atomic.Uint64
	// Matched counts emitted matches.
	Matched atomic.Uint64
}

// MutOp identifies a store mutation kind for mutation timing.
type MutOp uint8

const (
	OpAdd MutOp = iota
	OpDelete
	OpUpdate
	OpCommit
	// NumMutOps sizes per-op arrays.
	NumMutOps = int(OpCommit) + 1
)

var mutOpNames = [NumMutOps]string{"add", "delete", "update", "commit"}

// String returns the mutation op's wire name.
func (o MutOp) String() string {
	if int(o) < len(mutOpNames) {
		return mutOpNames[o]
	}
	return "unknown"
}

// ShardCounters is one shard's scan-side tallies. Padded to a cache
// line so neighbouring shards' counters do not false-share under
// concurrent scans.
type ShardCounters struct {
	// Scanned counts entries of this shard examined by completed scans
	// (attributed from the length of the shard's view; scans stopped early
	// are not attributed).
	Scanned atomic.Uint64
	// Pruned counts entries of this shard the prefilter discarded.
	Pruned atomic.Uint64
	// Mutations counts committed Add/Delete/Update operations.
	Mutations atomic.Uint64
	// Rebuilds counts branch-postings rebuilds installed on this shard.
	Rebuilds atomic.Uint64
	_        [4]uint64
}

// StoreMetrics is the sharded store's telemetry: mutation-latency
// histograms per op kind and per-shard counters. Owned by shard.Map.
type StoreMetrics struct {
	Mut    [NumMutOps]Histogram
	Shards []ShardCounters
}

// NewStoreMetrics sizes the per-shard counter array.
func NewStoreMetrics(shards int) *StoreMetrics {
	return &StoreMetrics{Shards: make([]ShardCounters, shards)}
}

// WALMetrics times the write-ahead log's durability protocol. One
// instance is shared by all per-shard WAL writers of a database.
type WALMetrics struct {
	// Append is the in-memory framing/buffering of one record (inside
	// the owning shard's critical section).
	Append Histogram
	// Fsync is one leader flush: buffered writes plus the fsync itself.
	Fsync Histogram
	// Wait is the group-commit wait — how long an acknowledged mutation
	// blocked for its record to become durable (FsyncAlways only).
	Wait Histogram
}
