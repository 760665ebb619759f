package server

import (
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsim"
	"gsim/internal/faultfs"
)

// TestLimiterShedsOverload saturates a 2-slot limiter with a blocked
// handler: in-flight work stays bounded at the cap, everything beyond
// cap+queue is shed with 429 and a Retry-After header, and the survivors
// complete once the blockage clears.
func TestLimiterShedsOverload(t *testing.T) {
	fx := newFixture(t)
	s := New(Config{DB: fx.db, MaxInFlight: 2, MaxQueue: 1, QueueWait: 30 * time.Millisecond})

	var inflight, peak atomic.Int64
	block := make(chan struct{})
	h := s.admit(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		<-block
		w.WriteHeader(http.StatusOK)
	})

	var wg sync.WaitGroup
	codes := make([]int, 6)
	run := func(i int) {
		defer wg.Done()
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("POST", "/v1/search", nil))
		codes[i] = rec.Code
		if rec.Code == http.StatusTooManyRequests && rec.Header().Get("Retry-After") == "" {
			t.Errorf("request %d: 429 without Retry-After", i)
		}
	}

	// Two fill the slots...
	wg.Add(2)
	go run(0)
	go run(1)
	for inflight.Load() != 2 {
		time.Sleep(time.Millisecond)
	}
	// ...four more arrive: at most one can queue (and times out after
	// QueueWait with the slots wedged), the rest bounce off the full
	// queue. All four must shed.
	wg.Add(4)
	for i := 2; i < 6; i++ {
		go run(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.limiter.shed() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("shed %d of 4 expected rejections", s.limiter.shed())
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	wg.Wait()

	ok, shed := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("unexpected status %d in %v", c, codes)
		}
	}
	if ok != 2 || shed != 4 {
		t.Fatalf("codes %v: want 2 OK and 4 shed", codes)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("in-flight peaked at %d, cap is 2", p)
	}
}

// TestLimiterAdmitsWhenSlotFrees: a queued request is admitted (not
// shed) when a slot opens within the wait window.
func TestLimiterAdmitsWhenSlotFrees(t *testing.T) {
	l := newLimiter(1, 1, time.Second)
	if !l.acquire(context.Background()) {
		t.Fatal("first acquire should succeed")
	}
	done := make(chan bool)
	go func() { done <- l.acquire(context.Background()) }()
	time.Sleep(5 * time.Millisecond) // let it queue
	l.release()
	if !<-done {
		t.Fatal("queued acquire should win the freed slot")
	}
	l.release()
	if l.shed() != 0 {
		t.Fatalf("shed = %d, want 0", l.shed())
	}
}

// TestRequestTimeoutMapsTo504: the per-request deadline reaches the
// handler's context, and a blown deadline answers 504.
func TestRequestTimeoutMapsTo504(t *testing.T) {
	fx := newFixture(t)
	s := New(Config{DB: fx.db, RequestTimeout: 20 * time.Millisecond})

	h := s.admit(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			writeError(w, searchStatus(r.Context().Err()), r.Context().Err())
		case <-time.After(5 * time.Second):
			w.WriteHeader(http.StatusOK)
		}
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/v1/search", nil))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", rec.Code)
	}
}

// TestPanicRecoveryReturns500: a panicking handler becomes a request-id
// tagged 500 and a panic counter bump, not a killed connection.
func TestPanicRecoveryReturns500(t *testing.T) {
	fx := newFixture(t)
	s := New(Config{DB: fx.db, Logger: log.New(io.Discard, "", 0)}) // the panic log is expected noise
	h := s.instrument(epSearch, func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/v1/search", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	rid := rec.Header().Get(requestIDHeader)
	if rid == "" || !strings.Contains(rec.Body.String(), rid) {
		t.Fatalf("500 body %q should carry request id %q", rec.Body.String(), rid)
	}
	if got := s.metrics.panics.Load(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}

	// The counter reaches /metrics.
	mrec := do(t, s.Handler(), "GET", "/metrics", nil, nil)
	if !strings.Contains(mrec.Body.String(), "gsim_http_panics_total 1") {
		t.Fatal("/metrics missing gsim_http_panics_total")
	}
}

// TestReadyzDraining: /readyz flips to 503 while draining and back;
// /healthz stays 200 throughout (liveness is not readiness).
func TestReadyzDraining(t *testing.T) {
	fx := newFixture(t)
	h := fx.srv.Handler()

	var ready readyResponse
	if rec := do(t, h, "GET", "/readyz", nil, &ready); rec.Code != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("/readyz = %d %+v, want 200 ready", rec.Code, ready)
	}
	fx.srv.SetDraining(true)
	if rec := do(t, h, "GET", "/readyz", nil, nil); rec.Code != http.StatusServiceUnavailable ||
		!strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("/readyz while draining = %d %q", rec.Code, rec.Body.String())
	}
	if rec := do(t, h, "GET", "/healthz", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200", rec.Code)
	}
	fx.srv.SetDraining(false)
	if rec := do(t, h, "GET", "/readyz", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("/readyz after drain cleared = %d, want 200", rec.Code)
	}
}

// degradedServer opens a durable database behind a fault injector,
// degrades it with a failing WAL fsync, and serves it. The hour-long
// probe backoff keeps the state stable for assertions.
func degradedServer(t *testing.T) (*Server, *gsim.Database) {
	t.Helper()
	dir := t.TempDir()
	in := faultfs.NewInjector(nil)
	db, err := gsim.Open(dir, gsim.WithShards(1), gsim.WithAutoCheckpoint(0),
		gsim.WithFS(in), gsim.WithRecoveryBackoff(time.Hour, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Clear(); db.Close() })
	b := db.NewGraph("resident")
	b.AddVertex("A")
	b.AddVertex("B")
	if err := b.AddEdge(0, 1, "e"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Store(); err != nil {
		t.Fatal(err)
	}
	in.Add(&faultfs.Rule{Op: faultfs.OpSync, PathContains: "wal-"})
	d := db.NewGraph("doomed")
	d.AddVertex("A")
	if _, err := d.Store(); err == nil {
		t.Fatal("store under failing fsync should error")
	}
	if db.Health().State == gsim.HealthHealthy {
		t.Fatal("database should be degraded")
	}
	return New(Config{DB: db}), db
}

// TestDegradedServing: while the database is degraded-read-only the
// serving layer answers 503 + Retry-After on mutations, keeps searches
// at 200, reports the state on /readyz and in /v1/stats, and exposes it
// on /metrics.
func TestDegradedServing(t *testing.T) {
	s, _ := degradedServer(t)
	h := s.Handler()

	// Mutations: 503 with a retry hint.
	rec := do(t, h, "DELETE", "/v1/graphs/1", nil, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("delete while degraded = %d %q, want 503", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("degraded 503 without Retry-After")
	}
	rec = do(t, h, "POST", "/v1/graphs", map[string]any{
		"graphs": []wireGraph{{Name: "g", Vertices: []string{"A"}}},
	}, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("ingest while degraded = %d %q, want 503", rec.Code, rec.Body.String())
	}

	// Searches keep serving.
	var sr searchResponse
	rec = do(t, h, "POST", "/v1/search", searchRequest{
		Graph:       wireGraph{Vertices: []string{"A", "B"}, Edges: []wireEdge{{U: 0, V: 1, Label: "e"}}},
		wireOptions: wireOptions{Method: "lsap", Tau: 2},
	}, &sr)
	if rec.Code != http.StatusOK {
		t.Fatalf("search while degraded = %d %q, want 200", rec.Code, rec.Body.String())
	}
	if sr.Scanned == 0 {
		t.Fatal("search while degraded scanned nothing")
	}

	// Readiness and observability surfaces tell the truth.
	var ready readyResponse
	if rec := do(t, h, "GET", "/readyz", nil, &ready); rec.Code != http.StatusServiceUnavailable ||
		!strings.Contains(rec.Body.String(), "degraded") {
		t.Fatalf("/readyz while degraded = %d %q", rec.Code, rec.Body.String())
	}
	var stats statsResponse
	if rec := do(t, h, "GET", "/v1/stats", nil, &stats); rec.Code != http.StatusOK {
		t.Fatalf("/v1/stats = %d", rec.Code)
	}
	if stats.Health.State != "degraded" || stats.Health.Cause == "" || stats.Health.Degradations == 0 {
		t.Fatalf("stats health block = %+v, want a degraded cause", stats.Health)
	}
	mrec := do(t, h, "GET", "/metrics", nil, nil)
	if !strings.Contains(mrec.Body.String(), "gsim_db_health_state 1") ||
		!strings.Contains(mrec.Body.String(), "gsim_db_degradations_total 1") {
		t.Fatalf("/metrics missing degraded health gauges:\n%s", mrec.Body.String())
	}
}
