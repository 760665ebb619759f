package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gsim"
	"gsim/internal/telemetry"
)

// Endpoint indexes for the per-endpoint metric arrays. The set is fixed
// at compile time so the latency histograms can live in one flat array
// with no map lookups or locks on the request path.
const (
	epSearch = iota
	epTopK
	epBatch
	epStream
	epGraphs
	epDelete
	epCheckpoint
	epStats
	epMetrics
	epHealthz
	epReadyz
	numEndpoints
)

var endpointNames = [numEndpoints]string{
	"/v1/search", "/v1/topk", "/v1/batch", "/v1/stream", "/v1/graphs",
	"/v1/graphs/{id}", "/v1/admin/checkpoint", "/v1/stats", "/metrics",
	"/healthz", "/readyz",
}

// httpMetrics is the serving layer's own metric group: request latency
// and status-class counters per endpoint and the in-flight gauge. It
// composes the same lock-free histograms the database layers record
// into, so one /metrics scrape renders the whole stack uniformly.
type httpMetrics struct {
	latency     [numEndpoints]telemetry.Histogram
	responses   [numEndpoints][5]atomic.Uint64 // status classes 1xx..5xx
	inFlight    atomic.Int64
	slowQueries atomic.Uint64
	// slowlogDropped counts slow-query lines the emission rate limit
	// suppressed (slowQueries still counts every slow request).
	slowlogDropped atomic.Uint64
	panics         atomic.Uint64 // handler panics recovered into 500s
}

// tokenBucket rate-limits slowlog emission: refilled at rate lines/s up
// to burst. Mutex-based — it is consulted only for requests already past
// the slow-query threshold, never on the fast path.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// newTokenBucket returns nil — no limit — for a non-positive rate.
func newTokenBucket(rate float64, burst int) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst)}
}

func (b *tokenBucket) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// requestIDHeader carries the request correlation ID. An inbound value
// is echoed back (so a caller's ID flows through proxies into the slow
// log); requests without one get a generated ID.
const requestIDHeader = "X-Request-Id"

// ridPrefix distinguishes IDs generated by different server processes;
// the per-request suffix is a process-local counter.
var ridPrefix = func() string {
	var b [6]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}()

var ridCounter atomic.Uint64

func newRequestID() string {
	return ridPrefix + "-" + strconv.FormatUint(ridCounter.Add(1), 10)
}

// sanitizeRequestID accepts an inbound correlation ID only if it is
// short and plain (alphanumerics plus - _ .): the value is echoed into
// a response header and the slow log, so anything else is discarded
// rather than reflected.
func sanitizeRequestID(s string) string {
	if s == "" || len(s) > 128 {
		return ""
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c == '-' || c == '_' || c == '.':
		default:
			return ""
		}
	}
	return s
}

// reqInfo rides the request context from the instrumentation wrapper
// into the handlers: handlers fill in what the wrapper cannot see (the
// search's stage breakdown), and the wrapper reads it back for the
// slow-query log.
type reqInfo struct {
	id       string
	searched bool // the handler ran a search; stages and counts are set
	stages   gsim.StageStats
	scanned  int
	matched  int
}

type reqInfoKey struct{}

// info returns the request's reqInfo, or nil for a handler invoked
// outside the instrumentation wrapper (direct tests).
func info(r *http.Request) *reqInfo {
	ri, _ := r.Context().Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// statusWriter captures the response status for the metrics wrapper. It
// forwards Flush so the streaming endpoint keeps flushing through it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the serving layer's observability:
// the request counter and body cap (formerly counted), the request ID,
// the in-flight gauge, the endpoint latency histogram and status-class
// counter, and the slow-query log.
func (s *Server) instrument(ep int, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		rid := sanitizeRequestID(r.Header.Get(requestIDHeader))
		if rid == "" {
			rid = newRequestID()
		}
		w.Header().Set(requestIDHeader, rid)
		ri := &reqInfo{id: rid}
		r = r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri))
		sw := &statusWriter{ResponseWriter: w}
		s.metrics.inFlight.Add(1)
		start := time.Now()
		s.recovering(ep, ri, sw, r, h)
		elapsed := time.Since(start)
		s.metrics.inFlight.Add(-1)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.metrics.latency[ep].Observe(elapsed)
		if class := status/100 - 1; class >= 0 && class < 5 {
			s.metrics.responses[ep][class].Add(1)
		}
		if t := s.cfg.SlowQuery; t > 0 && elapsed >= t {
			s.metrics.slowQueries.Add(1)
			if s.slowLimit == nil || s.slowLimit.allow(time.Now()) {
				s.logSlow(ri, endpointNames[ep], r.RemoteAddr, status, elapsed)
			} else {
				s.metrics.slowlogDropped.Add(1)
			}
		}
	}
}

// recovering runs h with panic containment: a panicking handler becomes
// a request-id-tagged 500 (when the header is still unsent) and a
// logged stack instead of a killed connection with no trace. The
// net/http abort sentinel is re-raised — it is the sanctioned way to
// drop a connection mid-response, not a bug.
func (s *Server) recovering(ep int, ri *reqInfo, sw *statusWriter, r *http.Request, h http.HandlerFunc) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if p == http.ErrAbortHandler {
			panic(p)
		}
		s.metrics.panics.Add(1)
		lg := s.cfg.Logger
		if lg == nil {
			lg = log.Default()
		}
		lg.Printf("panic id=%s endpoint=%s: %v\n%s", ri.id, endpointNames[ep], p, debug.Stack())
		if sw.status == 0 {
			writeError(sw, http.StatusInternalServerError,
				fmt.Errorf("internal error (request %s)", ri.id))
		}
	}()
	h(sw, r)
}

// logSlow emits one slow-query line: the correlation ID, the caller's
// remote address, endpoint, status and duration, plus the stage
// breakdown when the handler ran a search — enough to tell a slow scan
// from a slow merge from a fat response without re-running the query.
// Counting happens in instrument; this only renders, so the emission
// rate limit drops lines without losing the count.
func (s *Server) logSlow(ri *reqInfo, ep, remote string, status int, d time.Duration) {
	lg := s.cfg.Logger
	if lg == nil {
		lg = log.Default()
	}
	line := fmt.Sprintf("slow query id=%s remote=%s endpoint=%s status=%d dur=%s", ri.id, remote, ep, status, d)
	if st := &ri.stages; ri.searched {
		line += fmt.Sprintf(" prepare=%s cut=%s scan=%s merge=%s",
			time.Duration(st.PrepareNS), time.Duration(st.CutNS),
			time.Duration(st.ScanNS), time.Duration(st.MergeNS))
		if st.Traced {
			line += fmt.Sprintf(" prefilter=%s score=%s",
				time.Duration(st.PrefilterNS), time.Duration(st.ScoreNS))
		}
		line += fmt.Sprintf(" scanned=%d visited=%d pruned=%d matched=%d", ri.scanned, st.Visited, st.Pruned, ri.matched)
	}
	lg.Print(line)
}

// latencySummary is one histogram's JSON digest in /v1/stats: the
// population, mean and the tail quantiles (nanoseconds; quantiles carry
// the bucket scheme's ~3% resolution).
type latencySummary struct {
	Count  uint64 `json:"count"`
	MeanNS int64  `json:"mean_ns"`
	P50NS  int64  `json:"p50_ns"`
	P99NS  int64  `json:"p99_ns"`
	P999NS int64  `json:"p999_ns"`
	MaxNS  int64  `json:"max_ns"`
}

// summarize digests one histogram, reusing buf's 15 KiB bucket array
// across the endpoints and stages of one stats render.
func summarize(h *telemetry.Histogram, buf *telemetry.Snapshot) latencySummary {
	h.Load(buf)
	return latencySummary{
		Count:  buf.Total(),
		MeanNS: buf.MeanNS(),
		P50NS:  buf.Quantile(0.50),
		P99NS:  buf.Quantile(0.99),
		P999NS: buf.Quantile(0.999),
		MaxNS:  buf.MaxNS(),
	}
}

// latencyBlock builds the /v1/stats "latency" map: one summary per
// endpoint that has served at least one request.
func (s *Server) latencyBlock(buf *telemetry.Snapshot) map[string]latencySummary {
	out := make(map[string]latencySummary)
	for ep := 0; ep < numEndpoints; ep++ {
		if s.metrics.latency[ep].Count() == 0 {
			continue
		}
		out[endpointNames[ep]] = summarize(&s.metrics.latency[ep], buf)
	}
	return out
}

// stageBlock is the /v1/stats "stages" block: the database's cumulative
// search counters and a latency summary per pipeline stage (stages
// never recorded — e.g. prefilter/score without traced queries — are
// omitted).
type stageBlock struct {
	Searches uint64                    `json:"searches"`
	Scanned  uint64                    `json:"scanned"`
	Visited  uint64                    `json:"visited"`
	Pruned   uint64                    `json:"pruned"`
	Matched  uint64                    `json:"matched"`
	Latency  map[string]latencySummary `json:"latency"`
}

func (s *Server) stagesBlock(buf *telemetry.Snapshot) stageBlock {
	t := s.db.Telemetry()
	b := stageBlock{
		Searches: t.Searches.Load(),
		Scanned:  t.Scanned.Load(),
		Visited:  t.Visited.Load(),
		Pruned:   t.Pruned.Load(),
		Matched:  t.Matched.Load(),
		Latency:  make(map[string]latencySummary, telemetry.NumStages),
	}
	for st := 0; st < telemetry.NumStages; st++ {
		if t.Stage[st].Count() == 0 {
			continue
		}
		b.Latency[telemetry.Stage(st).String()] = summarize(&t.Stage[st], buf)
	}
	return b
}

// runtimeBlock is the /v1/stats "runtime" block: the process-level
// health signals an operator checks before blaming the database —
// goroutine count, heap pressure and GC activity.
type runtimeBlock struct {
	Goroutines     int    `json:"goroutines"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
	GCCycles       uint32 `json:"gc_cycles"`
	GCPauseTotalNS uint64 `json:"gc_pause_total_ns"`
}

func runtimeStats() runtimeBlock {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeBlock{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapInuseBytes: ms.HeapInuse,
		GCCycles:       ms.NumGC,
		GCPauseTotalNS: ms.PauseTotalNs,
	}
}

// handleMetrics renders the whole stack as Prometheus text: the HTTP
// layer's per-endpoint histograms and counters, the database's
// per-stage search histograms and counters, the store's per-shard
// counters and mutation histograms, the WAL's durability protocol, the
// database gauges, and the Go runtime. Everything is read from the same
// lock-free metric groups the hot paths record into — a scrape never
// blocks a search.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", telemetry.PromContentType)
	buf := &telemetry.Snapshot{}

	// Process identity.
	telemetry.WriteHeader(w, "gsim_build_info", "gauge", "Build metadata; the value is always 1.")
	telemetry.WriteGauge(w, "gsim_build_info",
		`version="`+gsim.Version+`",goversion="`+runtime.Version()+`"`, 1)
	telemetry.WriteHeader(w, "process_start_time_seconds", "gauge", "Unix time the server started.")
	telemetry.WriteGauge(w, "process_start_time_seconds", "", float64(s.start.UnixNano())/1e9)

	// HTTP layer.
	telemetry.WriteHeader(w, "gsim_http_requests_in_flight", "gauge", "Requests currently being served.")
	telemetry.WriteGauge(w, "gsim_http_requests_in_flight", "", float64(s.metrics.inFlight.Load()))
	telemetry.WriteHeader(w, "gsim_http_request_seconds", "histogram", "Request latency by endpoint.")
	for ep := 0; ep < numEndpoints; ep++ {
		if s.metrics.latency[ep].Count() == 0 {
			continue
		}
		s.metrics.latency[ep].Load(buf)
		buf.WriteProm(w, "gsim_http_request_seconds", `endpoint="`+endpointNames[ep]+`"`)
	}
	telemetry.WriteHeader(w, "gsim_http_responses_total", "counter", "Responses by endpoint and status class.")
	for ep := 0; ep < numEndpoints; ep++ {
		for class := 0; class < 5; class++ {
			n := s.metrics.responses[ep][class].Load()
			if n == 0 {
				continue
			}
			labels := `endpoint="` + endpointNames[ep] + `",class="` + strconv.Itoa(class+1) + `xx"`
			telemetry.WriteCounter(w, "gsim_http_responses_total", labels, n)
		}
	}
	telemetry.WriteHeader(w, "gsim_http_slow_queries_total", "counter", "Requests at or over the slow-query threshold.")
	telemetry.WriteCounter(w, "gsim_http_slow_queries_total", "", s.metrics.slowQueries.Load())
	telemetry.WriteHeader(w, "gsim_slowlog_dropped_total", "counter", "Slow-query log lines dropped by the emission rate limit.")
	telemetry.WriteCounter(w, "gsim_slowlog_dropped_total", "", s.metrics.slowlogDropped.Load())
	telemetry.WriteHeader(w, "gsim_http_panics_total", "counter", "Handler panics recovered into 500 responses.")
	telemetry.WriteCounter(w, "gsim_http_panics_total", "", s.metrics.panics.Load())
	if l := s.limiter; l != nil {
		telemetry.WriteHeader(w, "gsim_http_shed_total", "counter", "Work requests shed by admission control (429), by reason.")
		telemetry.WriteCounter(w, "gsim_http_shed_total", `reason="queue_full"`, l.shedFull.Load())
		telemetry.WriteCounter(w, "gsim_http_shed_total", `reason="queue_timeout"`, l.shedWait.Load())
		telemetry.WriteHeader(w, "gsim_http_admission_queued", "gauge", "Work requests waiting for an execution slot.")
		telemetry.WriteGauge(w, "gsim_http_admission_queued", "", float64(l.queued.Load()))
	}

	// Durability health machine.
	hi := s.db.Health()
	telemetry.WriteHeader(w, "gsim_db_health_state", "gauge", "Durability health: 0 healthy, 1 degraded (read-only), 2 recovering.")
	telemetry.WriteGauge(w, "gsim_db_health_state", "", float64(hi.State))
	telemetry.WriteHeader(w, "gsim_db_degradations_total", "counter", "Healthy-to-degraded transitions after durability faults.")
	telemetry.WriteCounter(w, "gsim_db_degradations_total", "", hi.Degradations)
	telemetry.WriteHeader(w, "gsim_db_recovery_probes_total", "counter", "Recovery checkpoint attempts while degraded.")
	telemetry.WriteCounter(w, "gsim_db_recovery_probes_total", "", hi.Probes)
	telemetry.WriteHeader(w, "gsim_db_recoveries_total", "counter", "Degraded-to-healthy transitions.")
	telemetry.WriteCounter(w, "gsim_db_recoveries_total", "", hi.Recoveries)

	// Search pipeline.
	t := s.db.Telemetry()
	telemetry.WriteHeader(w, "gsim_search_stage_seconds", "histogram", "Per-stage search latency (prefilter/score only for traced queries).")
	for st := 0; st < telemetry.NumStages; st++ {
		if t.Stage[st].Count() == 0 {
			continue
		}
		t.Stage[st].Load(buf)
		buf.WriteProm(w, "gsim_search_stage_seconds", `stage="`+telemetry.Stage(st).String()+`"`)
	}
	telemetry.WriteHeader(w, "gsim_searches_total", "counter", "Completed per-query scans.")
	telemetry.WriteCounter(w, "gsim_searches_total", "", t.Searches.Load())
	telemetry.WriteHeader(w, "gsim_search_scanned_total", "counter", "Entries examined by completed scans.")
	telemetry.WriteCounter(w, "gsim_search_scanned_total", "", t.Scanned.Load())
	telemetry.WriteHeader(w, "gsim_search_visited_total", "counter", "Entries whose columns or entry a scan read: the branch postings' candidates.")
	telemetry.WriteCounter(w, "gsim_search_visited_total", "", t.Visited.Load())
	telemetry.WriteHeader(w, "gsim_search_pruned_total", "counter", "Entries discarded by the admissible prefilter.")
	telemetry.WriteCounter(w, "gsim_search_pruned_total", "", t.Pruned.Load())
	telemetry.WriteHeader(w, "gsim_search_matched_total", "counter", "Matches emitted.")
	telemetry.WriteCounter(w, "gsim_search_matched_total", "", t.Matched.Load())

	// Sharded store.
	st := s.db.StoreTelemetry()
	telemetry.WriteHeader(w, "gsim_store_mutation_seconds", "histogram", "Committed mutation latency by op (journal wait included).")
	for op := 0; op < telemetry.NumMutOps; op++ {
		if st.Mut[op].Count() == 0 {
			continue
		}
		st.Mut[op].Load(buf)
		buf.WriteProm(w, "gsim_store_mutation_seconds", `op="`+telemetry.MutOp(op).String()+`"`)
	}
	telemetry.WriteHeader(w, "gsim_shard_scanned_total", "counter", "Entries scanned per shard (completed full scans).")
	for i := range st.Shards {
		telemetry.WriteCounter(w, "gsim_shard_scanned_total", `shard="`+strconv.Itoa(i)+`"`, st.Shards[i].Scanned.Load())
	}
	telemetry.WriteHeader(w, "gsim_shard_pruned_total", "counter", "Entries pruned per shard.")
	for i := range st.Shards {
		telemetry.WriteCounter(w, "gsim_shard_pruned_total", `shard="`+strconv.Itoa(i)+`"`, st.Shards[i].Pruned.Load())
	}
	telemetry.WriteHeader(w, "gsim_shard_mutations_total", "counter", "Committed mutations per shard.")
	for i := range st.Shards {
		telemetry.WriteCounter(w, "gsim_shard_mutations_total", `shard="`+strconv.Itoa(i)+`"`, st.Shards[i].Mutations.Load())
	}
	telemetry.WriteHeader(w, "gsim_shard_postings_rebuilds_total", "counter", "Branch-postings rebuilds installed per shard.")
	for i := range st.Shards {
		telemetry.WriteCounter(w, "gsim_shard_postings_rebuilds_total", `shard="`+strconv.Itoa(i)+`"`, st.Shards[i].Rebuilds.Load())
	}

	// WAL durability protocol.
	wt := s.db.WALTelemetry()
	telemetry.WriteHeader(w, "gsim_wal_append_seconds", "histogram", "WAL record framing and buffering.")
	wt.Append.Load(buf)
	buf.WriteProm(w, "gsim_wal_append_seconds", "")
	telemetry.WriteHeader(w, "gsim_wal_fsync_seconds", "histogram", "WAL leader flush: buffered write plus fsync.")
	wt.Fsync.Load(buf)
	buf.WriteProm(w, "gsim_wal_fsync_seconds", "")
	telemetry.WriteHeader(w, "gsim_wal_commit_wait_seconds", "histogram", "Group-commit wait until a mutation's record is durable.")
	wt.Wait.Load(buf)
	buf.WriteProm(w, "gsim_wal_commit_wait_seconds", "")

	// Database gauges.
	telemetry.WriteHeader(w, "gsim_db_graphs", "gauge", "Graphs stored (deleted excluded).")
	telemetry.WriteGauge(w, "gsim_db_graphs", "", float64(s.db.Len()))
	telemetry.WriteHeader(w, "gsim_db_epoch", "counter", "Database mutation epoch.")
	telemetry.WriteCounter(w, "gsim_db_epoch", "", s.db.Epoch())

	// Go runtime.
	rt := runtimeStats()
	telemetry.WriteHeader(w, "go_goroutines", "gauge", "Live goroutines.")
	telemetry.WriteGauge(w, "go_goroutines", "", float64(rt.Goroutines))
	telemetry.WriteHeader(w, "go_memstats_heap_alloc_bytes", "gauge", "Heap bytes allocated and in use.")
	telemetry.WriteGauge(w, "go_memstats_heap_alloc_bytes", "", float64(rt.HeapAllocBytes))
	telemetry.WriteHeader(w, "go_memstats_heap_inuse_bytes", "gauge", "Heap spans in use.")
	telemetry.WriteGauge(w, "go_memstats_heap_inuse_bytes", "", float64(rt.HeapInuseBytes))
	telemetry.WriteHeader(w, "go_gc_cycles_total", "counter", "Completed GC cycles.")
	telemetry.WriteCounter(w, "go_gc_cycles_total", "", uint64(rt.GCCycles))
	telemetry.WriteHeader(w, "go_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause.")
	telemetry.WriteGauge(w, "go_gc_pause_seconds_total", "", float64(rt.GCPauseTotalNS)/1e9)
}
