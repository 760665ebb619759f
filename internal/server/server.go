// Package server is the HTTP serving layer over a gsim.Database: a JSON
// API exposing the library's consumers (Search, SearchTopK, SearchBatch,
// SearchStream) plus graph ingest, health and introspection — the
// "online" face of the paper's online/offline split, where the
// probabilistic posterior makes each query cheap enough to answer
// interactively.
//
// Endpoints:
//
//	POST   /v1/search       threshold query            → JSON result
//	POST   /v1/topk         ranking query              → JSON result
//	POST   /v1/batch        multi-query workload       → JSON results (one scan)
//	POST   /v1/stream       threshold query            → NDJSON, one match per line
//	POST   /v1/graphs       ingest (.gsim text or JSON; a JSON graph with
//	                        "id" re-POSTs over the stored graph — update)
//	DELETE /v1/graphs/{id}  remove one stored graph by ID
//	POST   /v1/admin/checkpoint  force a snapshot + WAL truncation (409
//	                        when the database is in-memory)
//	GET    /v1/stats        database, prior, persistence and server
//	                        counters, plus latency/stage/runtime
//	                        telemetry summaries
//	GET    /metrics         Prometheus text exposition of the same
//	                        telemetry (Config.DisableMetrics removes it)
//	GET    /healthz         liveness
//
// Graph IDs are stable handles: ingest responses list them, search
// matches report them as "index", and DELETE/update address them. The
// database behind the server is sharded (see internal/shard), so ingest,
// delete and update on different shards commit concurrently while
// searches scan consistent snapshots.
//
// Every search, topk and batch request runs the library's scan, and its
// response reports the epoch of the snapshot that scan read: a client
// holding results from two epochs knows the database changed in between.
//
// Error contract: malformed requests and invalid option combinations
// (gsim.ErrBadOptions) are 400, searches needing unfitted priors
// (gsim.ErrNoPriors) are 409, an oversized pair refused by a baseline
// (gsim.ErrTooLarge) is 422, a graph too large to journal
// (gsim.ErrGraphTooLarge) is 413, everything else is 500. Error bodies are
// {"error": "..."}. Request bodies are decoded strictly (decode.go): an
// unknown field or any byte after the request object is malformed, and a
// body over Config.MaxBodyBytes is 413.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"gsim"
	"gsim/internal/telemetry"
)

// Config parameterises New.
type Config struct {
	// DB is the served database (required).
	DB *gsim.Database
	// DefaultMethod is used when a request omits "method" (zero value:
	// GBDA).
	DefaultMethod gsim.Method
	// Workers is both the default and the ceiling for per-request scan
	// parallelism (≤ 0: GOMAXPROCS): a request's "workers" field may
	// lower it, never exceed it.
	Workers int
	// MaxBodyBytes caps request body size (default 32 MiB).
	MaxBodyBytes int64
	// MaxBatch caps the number of graphs per /v1/batch and /v1/graphs
	// JSON request (default 1024).
	MaxBatch int
	// SlowQuery logs any request at or over this duration with its stage
	// breakdown (0 disables the slow-query log).
	SlowQuery time.Duration
	// SlowLogPerSec rate-limits slow-query line emission (token bucket)
	// so an overload burst — exactly when everything is slow — cannot
	// turn the slowlog into its own bottleneck. Dropped lines are still
	// counted (slow_queries in /v1/stats, gsim_slowlog_dropped_total on
	// /metrics). 0 defaults to 10 lines/s; negative disables the limit.
	SlowLogPerSec float64
	// SlowLogBurst is the token bucket's burst capacity (default 20).
	SlowLogBurst int
	// Logger receives slow-query lines (nil: the standard logger).
	Logger *log.Logger
	// DisableMetrics removes the GET /metrics Prometheus endpoint from
	// the route table; telemetry is still recorded and served by
	// /v1/stats.
	DisableMetrics bool
	// RequestTimeout bounds each work request (searches, ingest, delete)
	// with a context deadline: the engine scan observes the cancellation
	// and the request answers 504. ≤ 0 disables (no deadline).
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently executing work requests. Excess
	// requests wait briefly in a bounded queue (MaxQueue slots, up to
	// QueueWait), then are shed with 429 + Retry-After. ≤ 0 disables
	// admission control entirely.
	MaxInFlight int
	// MaxQueue bounds the admission wait queue (default 0: shed
	// immediately once MaxInFlight requests are executing).
	MaxQueue int
	// QueueWait is how long a queued request waits for a slot before
	// being shed (default 50ms). Only meaningful with MaxQueue > 0.
	QueueWait time.Duration
}

// Server serves one database over HTTP. Construct with New; all methods
// are safe for concurrent use (request handling relies on the database's
// own snapshot-at-prepare concurrency model).
type Server struct {
	db    *gsim.Database
	cfg   Config
	start time.Time

	requests atomic.Uint64 // served requests, all endpoints
	metrics  httpMetrics   // per-endpoint latency, status classes, in-flight

	limiter   *limiter     // admission control; nil = unlimited
	slowLimit *tokenBucket // slowlog emission rate limit; nil = unlimited
	draining  atomic.Bool  // shutdown in progress: /readyz answers 503
}

// New returns a server over cfg.DB.
func New(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	slowRate := cfg.SlowLogPerSec
	if slowRate == 0 {
		slowRate = 10
	}
	slowBurst := cfg.SlowLogBurst
	if slowBurst <= 0 {
		slowBurst = 20
	}
	return &Server{
		db:        cfg.DB,
		cfg:       cfg,
		start:     time.Now(),
		limiter:   newLimiter(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait),
		slowLimit: newTokenBucket(slowRate, slowBurst),
	}
}

// Handler returns the route table. The mux is rebuilt per call; callers
// keep one. Every route runs under instrument (see metrics.go): request
// ID, per-endpoint latency histogram, status-class counters, in-flight
// gauge and the slow-query log.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Work endpoints run under admit (concurrency limiter + request
	// deadline); the control plane — checkpoint, stats, metrics, health —
	// does not: overload and degradation are exactly when an operator
	// needs those to answer.
	mux.HandleFunc("/v1/search", s.instrument(epSearch, s.admit(post(s.answer(s.readSearch)))))
	mux.HandleFunc("/v1/topk", s.instrument(epTopK, s.admit(post(s.answer(s.readTopK)))))
	mux.HandleFunc("/v1/batch", s.instrument(epBatch, s.admit(post(s.answer(s.readBatch)))))
	mux.HandleFunc("/v1/stream", s.instrument(epStream, s.admit(post(s.handleStream))))
	mux.HandleFunc("/v1/graphs", s.instrument(epGraphs, s.admit(post(s.handleIngest))))
	mux.HandleFunc("DELETE /v1/graphs/{id}", s.instrument(epDelete, s.admit(s.handleDelete)))
	mux.HandleFunc("/v1/admin/checkpoint", s.instrument(epCheckpoint, post(s.handleCheckpoint)))
	mux.HandleFunc("/v1/stats", s.instrument(epStats, get(s.handleStats)))
	if !s.cfg.DisableMetrics {
		mux.HandleFunc("/metrics", s.instrument(epMetrics, get(s.handleMetrics)))
	}
	mux.HandleFunc("/healthz", s.instrument(epHealthz, get(s.handleHealthz)))
	mux.HandleFunc("/readyz", s.instrument(epReadyz, get(s.handleReadyz)))
	return mux
}

// post admits only POST requests.
func post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
			return
		}
		h(w, r)
	}
}

// get admits only GET and HEAD requests.
func get(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
			return
		}
		h(w, r)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

// checkpointResponse is the POST /v1/admin/checkpoint body: what the
// forced snapshot wrote. A non-durable database answers 409.
type checkpointResponse struct {
	Epoch        uint64 `json:"epoch"`
	Generation   uint64 `json:"generation"`
	Segments     int    `json:"segments"`
	BytesWritten int64  `json:"bytes_written"`
	DurationMS   int64  `json:"duration_ms"`
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	st, err := s.db.Checkpoint()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, gsim.ErrNotDurable) || errors.Is(err, gsim.ErrClosed) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, checkpointResponse{
		Epoch:        st.Epoch,
		Generation:   st.Generation,
		Segments:     st.Segments,
		BytesWritten: st.BytesWritten,
		DurationMS:   st.Duration.Milliseconds(),
	})
}

// statsResponse is the /v1/stats body.
type statsResponse struct {
	// Version and UptimeSeconds identify the build behind the answers —
	// the same pair gsim_build_info / process_start_time_seconds expose
	// on /metrics, so a load report can embed the server's identity.
	Version       string         `json:"version"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Database      dbStats        `json:"database"`
	Priors        priorStats     `json:"priors"`
	Model         modelStats     `json:"model"`
	Prefilter     prefilterStats `json:"prefilter"`
	Persistence   persistStats   `json:"persistence"`
	Epoch         uint64         `json:"epoch"`
	Server        serverCounts   `json:"server"`
	// Health is the durability health machine: state, current-episode
	// cause, and the transition counters (see gsim.HealthInfo).
	Health healthBlock `json:"health"`
	// Latency summarises per-endpoint request latency (endpoints that
	// have served at least one request).
	Latency map[string]latencySummary `json:"latency"`
	// Stages carries the database's cumulative search telemetry: the
	// whole-search counters and a latency summary per pipeline stage.
	Stages stageBlock `json:"stages"`
	// Runtime carries process health: goroutines, heap and GC.
	Runtime runtimeBlock `json:"runtime"`
}

// persistStats surfaces the durability layer: WAL pressure (bytes and
// records not yet snapshotted, records not yet known synced) and the
// checkpoint history. All-false/zero when the database is in-memory.
type persistStats struct {
	Durable             bool   `json:"durable"`
	WAL                 bool   `json:"wal"`
	Policy              string `json:"policy,omitempty"`
	Generation          uint64 `json:"generation,omitempty"`
	Segments            int    `json:"segments,omitempty"`
	WALBytes            int64  `json:"wal_bytes"`
	WALRecords          uint64 `json:"wal_records"`
	WALUnsynced         uint64 `json:"wal_unsynced"`
	Checkpoints         uint64 `json:"checkpoints"`
	LastCheckpointEpoch uint64 `json:"last_checkpoint_epoch"`
	LastCheckpointBytes int64  `json:"last_checkpoint_bytes"`
	LastCheckpointMS    int64  `json:"last_checkpoint_ms"`
}

// modelStats surfaces the steady-state hot-path artifacts: the posterior
// lookup tables cached per search configuration and the interned branch
// dictionary entries stored multisets index into, with the dictionary's
// delete-driven lifecycle (dead keys awaiting compaction, IDs retired by
// completed passes).
type modelStats struct {
	PosteriorTables       int    `json:"posterior_tables"`
	PosteriorTableBytes   int64  `json:"posterior_table_bytes"`
	BranchDictSize        int    `json:"branch_dict_size"`
	BranchDictDead        int    `json:"branch_dict_dead"`
	BranchDictRetired     int    `json:"branch_dict_retired"`
	BranchDictCompactions uint64 `json:"branch_dict_compactions"`
	BranchDictUniverse    int    `json:"branch_dict_universe"`
}

// prefilterStats surfaces the prefilter's memory footprint:
//
//   - entries: stored graphs, every one covered by the prefilter;
//   - sig_bytes: the per-shard signature columns, 8 bytes per entry;
//   - arena_bytes: the label spans the entries carry (sizes plus
//     delta+run varint label multisets), each entry's 16-byte string
//     header included.
type prefilterStats struct {
	Entries    int   `json:"entries"`
	SigBytes   int64 `json:"sig_bytes"`
	ArenaBytes int64 `json:"arena_bytes"`
}

type dbStats struct {
	Name      string  `json:"name"`
	Graphs    int     `json:"graphs"`
	MaxV      int     `json:"max_vertices"`
	MaxE      int     `json:"max_edges"`
	AvgDegree float64 `json:"avg_degree"`
	LV        int     `json:"vertex_labels"`
	LE        int     `json:"edge_labels"`
	Shards    int     `json:"shards"`
	ShardMin  int     `json:"shard_min"`
	ShardMax  int     `json:"shard_max"`
}

type priorStats struct {
	Built  bool `json:"built"`
	TauMax int  `json:"tau_max,omitempty"`
}

type serverCounts struct {
	Requests    uint64 `json:"requests"`
	InFlight    int64  `json:"in_flight"`
	SlowQueries uint64 `json:"slow_queries"`
	UptimeMS    int64  `json:"uptime_ms"`
	// Panics counts handler panics recovered into 500s; Shed counts work
	// requests rejected with 429 by admission control (MaxInFlight caps
	// concurrent execution; 0 = unlimited). Draining mirrors /readyz
	// during graceful shutdown.
	Panics      uint64 `json:"panics"`
	Shed        uint64 `json:"shed"`
	MaxInFlight int    `json:"max_in_flight"`
	Draining    bool   `json:"draining"`
	// SlowlogDropped counts slow-query lines suppressed by the emission
	// rate limit; SlowQueries still counts every slow request.
	SlowlogDropped uint64 `json:"slowlog_dropped"`
}

// healthBlock is the /v1/stats "health" block: the degraded-mode state
// machine's current state and lifetime transition counters.
type healthBlock struct {
	State        string `json:"state"`
	Since        string `json:"since,omitempty"`
	Cause        string `json:"cause,omitempty"`
	Degradations uint64 `json:"degradations"`
	Probes       uint64 `json:"probes"`
	Recoveries   uint64 `json:"recoveries"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.db.Stats()
	tables, tableBytes := s.db.PosteriorTableStats()
	dict := s.db.BranchDictStats()
	pre := s.db.PrefilterStats()
	sizes := s.db.ShardSizes()
	shardMin, shardMax := 0, 0
	for i, n := range sizes {
		if i == 0 || n < shardMin {
			shardMin = n
		}
		if n > shardMax {
			shardMax = n
		}
	}
	resp := statsResponse{
		Version:       gsim.Version,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Database: dbStats{
			Name:      s.db.Name(),
			Graphs:    st.Graphs,
			MaxV:      st.MaxV,
			MaxE:      st.MaxE,
			AvgDegree: st.AvgDegree,
			LV:        st.LV,
			LE:        st.LE,
			Shards:    len(sizes),
			ShardMin:  shardMin,
			ShardMax:  shardMax,
		},
		Priors: priorStats{Built: s.db.HasPriors(), TauMax: s.db.TauMax()},
		Model: modelStats{
			PosteriorTables:       tables,
			PosteriorTableBytes:   tableBytes,
			BranchDictSize:        s.db.BranchDictLen(),
			BranchDictDead:        dict.Dead,
			BranchDictRetired:     dict.Retired,
			BranchDictCompactions: dict.Compactions,
			BranchDictUniverse:    dict.Universe,
		},
		Prefilter: prefilterStats{
			Entries:    pre.Entries,
			SigBytes:   pre.SigBytes,
			ArenaBytes: pre.ArenaBytes,
		},
		Persistence: persistenceBlock(s.db.PersistStats()),
		Epoch:       s.db.Epoch(),
		Server: serverCounts{
			Requests:       s.requests.Load(),
			InFlight:       s.metrics.inFlight.Load(),
			SlowQueries:    s.metrics.slowQueries.Load(),
			UptimeMS:       time.Since(s.start).Milliseconds(),
			Panics:         s.metrics.panics.Load(),
			MaxInFlight:    s.cfg.MaxInFlight,
			Draining:       s.draining.Load(),
			SlowlogDropped: s.metrics.slowlogDropped.Load(),
		},
		Health: healthInfoBlock(s.db.Health()),
	}
	if s.limiter != nil {
		resp.Server.Shed = s.limiter.shed()
	}
	// One 15 KiB snapshot buffer serves every histogram digest of this
	// render.
	buf := &telemetry.Snapshot{}
	resp.Latency = s.latencyBlock(buf)
	resp.Stages = s.stagesBlock(buf)
	resp.Runtime = runtimeStats()
	writeJSON(w, http.StatusOK, resp)
}

// healthInfoBlock maps the library's health snapshot to the wire.
func healthInfoBlock(hi gsim.HealthInfo) healthBlock {
	b := healthBlock{
		State:        hi.State.String(),
		Cause:        hi.Cause,
		Degradations: hi.Degradations,
		Probes:       hi.Probes,
		Recoveries:   hi.Recoveries,
	}
	if !hi.Since.IsZero() {
		b.Since = hi.Since.UTC().Format(time.RFC3339Nano)
	}
	return b
}

// persistenceBlock maps the library's persistence counters to the wire.
func persistenceBlock(ps gsim.PersistStats) persistStats {
	return persistStats{
		Durable:             ps.Durable,
		WAL:                 ps.WAL,
		Policy:              ps.Policy,
		Generation:          ps.Generation,
		Segments:            ps.Segments,
		WALBytes:            ps.WALBytes,
		WALRecords:          ps.WALRecords,
		WALUnsynced:         ps.WALUnsynced,
		Checkpoints:         ps.Checkpoints,
		LastCheckpointEpoch: ps.LastCheckpointEpoch,
		LastCheckpointBytes: ps.LastCheckpointBytes,
		LastCheckpointMS:    ps.LastCheckpointDuration.Milliseconds(),
	}
}

// writeJSON renders v with status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errorResponse is every error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// searchStatus maps a search error to its HTTP status: caller mistakes
// are 400, a database not ready for the method is 409, an oversized pair
// refused by a baseline is 422, a request deadline blown mid-scan is
// 504, the rest is 500.
func searchStatus(err error) int {
	switch {
	case errors.Is(err, gsim.ErrBadOptions):
		return http.StatusBadRequest
	case errors.Is(err, gsim.ErrNoPriors):
		return http.StatusConflict
	case errors.Is(err, gsim.ErrTooLarge):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// writeMutationError renders a mutation failure: a degraded (read-only)
// database answers 503 with a Retry-After — the background probe is
// already working on recovery, so a retry is genuinely worth the
// client's while — unknown IDs answer 404, a graph too large to journal
// 413, everything else the caller's fallback.
func writeMutationError(w http.ResponseWriter, err error, fallback int) {
	switch {
	case errors.Is(err, gsim.ErrDegraded):
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, gsim.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, gsim.ErrGraphTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, err)
	default:
		writeError(w, fallback, err)
	}
}
