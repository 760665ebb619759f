package server

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"gsim"
)

// httptestRequest builds a bodyless request, optionally carrying an
// inbound request ID.
func httptestRequest(method, path, rid string) *http.Request {
	req := httptest.NewRequest(method, path, nil)
	if rid != "" {
		req.Header.Set(requestIDHeader, rid)
	}
	return req
}

// httptestRequestJSON builds a request with a JSON body.
func httptestRequestJSON(t *testing.T, method, path string, body any) *http.Request {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(method, path, &buf)
	req.Header.Set("Content-Type", "application/json")
	return req
}

func recordRequest(h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// streamAndTrail posts a stream request and returns the trailer of its
// NDJSON body, with the framing asserted by parseStream.
func streamAndTrail(t *testing.T, h http.Handler, path string, body any) streamTrailer {
	t.Helper()
	rec := recordRequest(h, httptestRequestJSON(t, "POST", path, body))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	_, trailer := parseStream(t, rec.Body)
	return trailer
}

// TestMetricsExposition: after serving traffic, GET /metrics renders the
// Prometheus text format with per-endpoint request histograms, the
// search stage histograms and the store counters.
func TestMetricsExposition(t *testing.T) {
	fx := newFixture(t, 8)
	h := fx.srv.Handler()
	qi := fx.ds.Queries[0]
	req := searchRequest{Graph: fx.wireQuery(qi), wireOptions: wireOptions{Tau: 3, Gamma: 0.8}}
	if rec := do(t, h, "POST", "/v1/search", req, nil); rec.Code != http.StatusOK {
		t.Fatalf("search: status %d: %s", rec.Code, rec.Body.String())
	}
	rec := do(t, h, "GET", "/metrics", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`gsim_http_request_seconds_count{endpoint="/v1/search"} 1`,
		`gsim_http_responses_total{endpoint="/v1/search",class="2xx"} 1`,
		"gsim_http_requests_in_flight 1", // the scrape itself
		`gsim_search_stage_seconds_count{stage="scan"} 1`,
		`gsim_search_stage_seconds_count{stage="prepare"} 1`,
		"gsim_searches_total 1",
		"gsim_search_scanned_total 54",
		"gsim_search_visited_total ",
		`gsim_shard_scanned_total{shard="0"}`,
		`gsim_shard_postings_rebuilds_total{shard="0"}`,
		"gsim_db_graphs 54",
		"go_goroutines",
		"# TYPE gsim_http_request_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsDisabled: Config.DisableMetrics removes the route.
func TestMetricsDisabled(t *testing.T) {
	fx := newFixture(t, 0)
	srv := New(Config{DB: fx.db, DisableMetrics: true})
	rec := do(t, srv.Handler(), "GET", "/metrics", nil, nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("disabled /metrics: status %d, want 404", rec.Code)
	}
}

// TestRequestID: a sane inbound X-Request-Id is echoed; absent or
// hostile ones are replaced with a generated ID.
func TestRequestID(t *testing.T) {
	fx := newFixture(t, 0)
	h := fx.srv.Handler()
	get := func(inbound string) string {
		req := httptestRequest("GET", "/healthz", inbound)
		rec := recordRequest(h, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("healthz: %d", rec.Code)
		}
		return rec.Header().Get(requestIDHeader)
	}
	if id := get("client-abc.123"); id != "client-abc.123" {
		t.Fatalf("inbound ID not echoed: %q", id)
	}
	if id := get(""); id == "" || !strings.HasPrefix(id, ridPrefix+"-") {
		t.Fatalf("generated ID %q lacks process prefix %q", id, ridPrefix)
	}
	if id := get("evil\nheader{}"); strings.Contains(id, "\n") || strings.Contains(id, "{") || id == "" {
		t.Fatalf("hostile inbound ID survived: %q", id)
	}
	if a, b := get(""), get(""); a == b {
		t.Fatalf("generated IDs collide: %q", a)
	}
}

// TestDebugTrace: ?debug=trace bypasses the cache and echoes the stage
// breakdown; plain requests carry no stages block and cache normally.
func TestDebugTrace(t *testing.T) {
	fx := newFixture(t, 8)
	h := fx.srv.Handler()
	req := searchRequest{Graph: fx.wireQuery(fx.ds.Queries[0]), wireOptions: wireOptions{Tau: 3, Gamma: 0.8, Prefilter: true}}

	var plain searchResponse
	rec := do(t, h, "POST", "/v1/search", req, &plain)
	if rec.Code != http.StatusOK || plain.Stages != nil {
		t.Fatalf("plain search: status %d, stages %+v (want absent)", rec.Code, plain.Stages)
	}

	var traced searchResponse
	rec = do(t, h, "POST", "/v1/search?debug=trace", req, &traced)
	if rec.Code != http.StatusOK {
		t.Fatalf("traced search: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(cacheHeader); got != "bypass" {
		t.Fatalf("traced search cache header %q, want bypass", got)
	}
	if traced.Stages == nil {
		t.Fatal("traced search: no stages block")
	}
	if traced.Stages.PrepareNS <= 0 || traced.Stages.ScanNS <= 0 {
		t.Fatalf("traced stages not populated: %+v", traced.Stages)
	}
	if traced.Stages.ScoreNS <= 0 {
		t.Fatalf("traced search missing fine score span: %+v", traced.Stages)
	}
	// The traced body must not have poisoned the cache: the same plain
	// request still misses or hits on the stage-free body.
	var again searchResponse
	do(t, h, "POST", "/v1/search", req, &again)
	if again.Stages != nil {
		t.Fatal("cached body carries a stages block")
	}
}

// TestStreamTrailerTelemetry: the NDJSON trailer reports epoch, scanned
// and elapsed always, and the stage breakdown under ?debug=trace.
func TestStreamTrailerTelemetry(t *testing.T) {
	fx := newFixture(t, 0)
	h := fx.srv.Handler()
	req := searchRequest{Graph: fx.wireQuery(fx.ds.Queries[0]), wireOptions: wireOptions{Tau: 3, Gamma: 0.8}}

	trailer := streamAndTrail(t, h, "/v1/stream", req)
	if !trailer.Done || trailer.Scanned != 54 || trailer.ElapsedNS <= 0 {
		t.Fatalf("trailer %+v: want done, scanned=54, elapsed>0", trailer)
	}
	if trailer.Epoch != fx.db.Epoch() {
		t.Fatalf("trailer epoch %d != db epoch %d", trailer.Epoch, fx.db.Epoch())
	}
	if trailer.Stages != nil {
		t.Fatal("untraced trailer carries stages")
	}

	trailer = streamAndTrail(t, h, "/v1/stream?debug=trace", req)
	if trailer.Stages == nil || trailer.Stages.ScanNS <= 0 {
		t.Fatalf("traced trailer stages %+v", trailer.Stages)
	}
}

// TestStatsTelemetryBlocks: /v1/stats reports per-endpoint latency,
// per-stage summaries and runtime health after traffic.
func TestStatsTelemetryBlocks(t *testing.T) {
	fx := newFixture(t, 8)
	h := fx.srv.Handler()
	req := searchRequest{Graph: fx.wireQuery(fx.ds.Queries[0]), wireOptions: wireOptions{Tau: 3, Gamma: 0.8}}
	for i := 0; i < 2; i++ { // second one hits the cache
		if rec := do(t, h, "POST", "/v1/search", req, nil); rec.Code != http.StatusOK {
			t.Fatalf("search %d: %d", i, rec.Code)
		}
	}
	var st statsResponse
	if rec := do(t, h, "GET", "/v1/stats", nil, &st); rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	lat, ok := st.Latency["/v1/search"]
	if !ok || lat.Count != 2 || lat.P99NS < lat.P50NS || lat.MaxNS <= 0 {
		t.Fatalf("search latency summary %+v (present=%v)", lat, ok)
	}
	if hit, ok := st.Latency["cache_hit"]; !ok || hit.Count != 1 {
		t.Fatalf("cache_hit summary %+v (present=%v)", st.Latency["cache_hit"], ok)
	}
	if miss, ok := st.Latency["cache_miss"]; !ok || miss.Count != 1 {
		t.Fatalf("cache_miss summary %+v (present=%v)", st.Latency["cache_miss"], ok)
	}
	if st.Stages.Searches != 1 || st.Stages.Scanned != 54 {
		t.Fatalf("stages counters %+v: want 1 search over 54 entries", st.Stages)
	}
	if scan, ok := st.Stages.Latency["scan"]; !ok || scan.Count != 1 {
		t.Fatalf("scan stage summary %+v (present=%v)", scan, ok)
	}
	if _, ok := st.Stages.Latency["prefilter"]; ok {
		t.Fatal("untraced traffic recorded the fine prefilter stage")
	}
	if st.Runtime.Goroutines <= 0 || st.Runtime.HeapAllocBytes == 0 {
		t.Fatalf("runtime block %+v", st.Runtime)
	}
	if st.Server.SlowQueries != 0 {
		t.Fatalf("slow queries %d without a threshold", st.Server.SlowQueries)
	}
}

// TestSlowQueryLog: requests at or over the threshold land in the log
// with their request ID and stage breakdown.
func TestSlowQueryLog(t *testing.T) {
	fx := newFixture(t, 0)
	var buf bytes.Buffer
	srv := New(Config{DB: fx.db, SlowQuery: time.Nanosecond, Logger: log.New(&buf, "", 0)})
	h := srv.Handler()
	req := searchRequest{Graph: fx.wireQuery(fx.ds.Queries[0]), wireOptions: wireOptions{Tau: 3, Gamma: 0.8}}
	request := httptestRequestJSON(t, "POST", "/v1/search", req)
	request.Header.Set(requestIDHeader, "slow-req-1")
	if rec := recordRequest(h, request); rec.Code != http.StatusOK {
		t.Fatalf("search: %d", rec.Code)
	}
	line := buf.String()
	for _, want := range []string{
		"slow query id=slow-req-1", "remote=", "endpoint=/v1/search", "status=200",
		"prepare=", "scan=", "merge=", "scanned=54",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("slow log %q missing %q", line, want)
		}
	}
	if srv.metrics.slowQueries.Load() != 1 {
		t.Fatalf("slow query counter %d, want 1", srv.metrics.slowQueries.Load())
	}
}

// TestSlowlogRateLimit: a burst of slow requests emits at most the token
// bucket's burst in log lines; the rest are counted as dropped while the
// slow-query counter still sees every one.
func TestSlowlogRateLimit(t *testing.T) {
	fx := newFixture(t, 0)
	var buf bytes.Buffer
	srv := New(Config{
		DB: fx.db, SlowQuery: time.Nanosecond,
		SlowLogPerSec: 0.0001, SlowLogBurst: 2, // refill is negligible within the test
		Logger: log.New(&buf, "", 0),
	})
	h := srv.Handler()
	for i := 0; i < 5; i++ {
		if rec := recordRequest(h, httptestRequest("GET", "/healthz", "")); rec.Code != http.StatusOK {
			t.Fatalf("healthz %d: %d", i, rec.Code)
		}
	}
	if got := strings.Count(buf.String(), "slow query"); got != 2 {
		t.Fatalf("emitted %d slow-query lines, want burst of 2:\n%s", got, buf.String())
	}
	if n := srv.metrics.slowQueries.Load(); n != 5 {
		t.Fatalf("slow query counter %d, want 5 (dropped lines still count)", n)
	}
	if n := srv.metrics.slowlogDropped.Load(); n != 3 {
		t.Fatalf("dropped counter %d, want 3", n)
	}
	var st statsResponse
	do(t, h, "GET", "/v1/stats", nil, &st)
	if st.Server.SlowlogDropped != 3 {
		t.Fatalf("/v1/stats slowlog_dropped %d, want 3", st.Server.SlowlogDropped)
	}
	// The stats request itself crossed the 1ns threshold with an empty
	// bucket, so the scrape that follows reports one more drop.
	rec := do(t, h, "GET", "/metrics", nil, nil)
	if !strings.Contains(rec.Body.String(), "gsim_slowlog_dropped_total 4") {
		t.Fatal("/metrics missing gsim_slowlog_dropped_total 4")
	}
}

// TestBuildInfoAndUptime: the process identifies its build on /metrics
// (gsim_build_info, process_start_time_seconds) and /v1/stats (version,
// uptime_seconds), so a scrape names the build that produced it.
func TestBuildInfoAndUptime(t *testing.T) {
	fx := newFixture(t, 0)
	h := fx.srv.Handler()
	rec := do(t, h, "GET", "/metrics", nil, nil)
	body := rec.Body.String()
	for _, want := range []string{
		`gsim_build_info{version="` + gsim.Version + `",goversion="` + runtime.Version() + `"} 1`,
		"process_start_time_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	var st statsResponse
	do(t, h, "GET", "/v1/stats", nil, &st)
	if st.Version != gsim.Version {
		t.Fatalf("stats version %q, want %q", st.Version, gsim.Version)
	}
	if st.UptimeSeconds <= 0 {
		t.Fatalf("uptime_seconds %v, want > 0", st.UptimeSeconds)
	}
}

// TestInFlightSettles: the gauge returns to zero once requests finish.
func TestInFlightSettles(t *testing.T) {
	fx := newFixture(t, 0)
	h := fx.srv.Handler()
	for i := 0; i < 3; i++ {
		do(t, h, "GET", "/healthz", nil, nil)
	}
	if n := fx.srv.metrics.inFlight.Load(); n != 0 {
		t.Fatalf("in-flight gauge %d after requests drained", n)
	}
	if fx.srv.metrics.latency[epHealthz].Count() != 3 {
		t.Fatalf("healthz latency count %d, want 3", fx.srv.metrics.latency[epHealthz].Count())
	}
}

// TestTopKTrace: the ranking endpoint honours ?debug=trace too.
func TestTopKTrace(t *testing.T) {
	fx := newFixture(t, 0)
	h := fx.srv.Handler()
	req := searchRequest{Graph: fx.wireQuery(fx.ds.Queries[0]), wireOptions: wireOptions{K: 5}}
	var resp searchResponse
	rec := do(t, h, "POST", "/v1/topk?debug=trace", req, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("topk: %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Stages == nil || resp.Stages.ScoreNS <= 0 {
		t.Fatalf("traced topk stages %+v", resp.Stages)
	}
}
