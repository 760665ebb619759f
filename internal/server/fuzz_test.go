package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzWire posts arbitrary bodies to the five body-taking endpoints of a
// served database with priors fitted. Whatever the bytes, the handler
// must not panic, must answer below 500 (503 aside: admission and
// degraded mode are allowed to refuse) and must finish well inside a 5 s
// deadline — a request field that buys unbounded work is a bug even
// when every status is a polite 400.
func FuzzWire(f *testing.F) {
	endpoints := []string{"/v1/search", "/v1/topk", "/v1/batch", "/v1/stream", "/v1/graphs"}
	// The seed corpus is testdata/fuzz/FuzzWire: one valid body per
	// endpoint, plus the fields that once bought (or could buy) unbounded
	// work or a crash — a denormal "v2_weight", "k", "v1_sample" and "tau"
	// at 2^62, a self-loop edge, an ingest "id" on a query endpoint.
	fx := newFixture(f)
	h := fx.srv.Handler()
	fresh := fx.db.Len() // fixture graphs hold IDs below this
	f.Fuzz(func(t *testing.T, sel byte, body []byte) {
		path := endpoints[int(sel)%len(endpoints)]
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
		}
		if ctx.Err() != nil {
			t.Fatalf("%s: still running at the 5 s deadline (status %d)", path, rec.Code)
		}
		// Drop what an ingest inserted, so one input's outcome does not
		// depend on how many came before it.
		var ing ingestResponse
		if path == "/v1/graphs" && rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &ing) == nil {
			for _, id := range ing.IDs {
				if id >= fresh {
					fx.db.Delete(id)
				}
			}
		}
	})
}
