package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gsim"
)

// TestCheckpointEndpoint: POST /v1/admin/checkpoint on a durable
// database forces a snapshot and reports what it wrote; the persistence
// block of /v1/stats tracks the WAL and checkpoint counters.
func TestCheckpointEndpoint(t *testing.T) {
	db, err := gsim.Open(t.TempDir(), gsim.WithName("admin"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := New(Config{DB: db})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Ingest one graph so the checkpoint has something to write.
	body := `{"graphs": [{"name": "g0", "vertices": ["A","B"], "edges": [{"u":0,"v":1,"label":"x"}]}]}`
	resp, err := http.Post(ts.URL+"/v1/graphs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cp checkpointResponse
	if err := json.NewDecoder(resp.Body).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}
	if cp.Generation < 2 || cp.Segments < 1 || cp.BytesWritten <= 0 {
		t.Fatalf("checkpoint response %+v", cp)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	p := st.Persistence
	if !p.Durable || !p.WAL || p.Policy != "always" {
		t.Fatalf("persistence block %+v", p)
	}
	if p.Generation != cp.Generation || p.Checkpoints < 2 {
		t.Fatalf("persistence counters %+v after checkpoint %+v", p, cp)
	}
	if p.WALRecords != 0 || p.WALUnsynced != 0 {
		t.Fatalf("fresh generation should carry no records: %+v", p)
	}

	// GET is rejected — the endpoint mutates the directory.
	resp, err = http.Get(ts.URL + "/v1/admin/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET checkpoint status %d, want 405", resp.StatusCode)
	}
}

// TestCheckpointNotDurable: an in-memory database answers 409 with the
// ErrNotDurable message, and its stats carry an all-zero block.
func TestCheckpointNotDurable(t *testing.T) {
	fx := newFixture(t)
	ts := httptest.NewServer(fx.srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409", resp.StatusCode)
	}
	if !strings.Contains(e.Error, "not durable") {
		t.Fatalf("error %q", e.Error)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Persistence.Durable || st.Persistence.WAL {
		t.Fatalf("in-memory persistence block %+v", st.Persistence)
	}
}

// TestDurableIngestSurvivesRestart: the full server path — ingest over
// HTTP, drop the handle without Close, reopen — keeps every acknowledged
// graph, proving the handlers ride the journaled mutation paths.
func TestDurableIngestSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	db, err := gsim.Open(dir, gsim.WithAutoCheckpoint(0))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{DB: db})
	ts := httptest.NewServer(srv.Handler())

	body := `{"graphs": [
		{"name": "a", "vertices": ["A","B"], "edges": [{"u":0,"v":1,"label":"x"}]},
		{"name": "b", "vertices": ["C","D"], "edges": [{"u":0,"v":1,"label":"y"}]}
	]}`
	resp, err := http.Post(ts.URL+"/v1/graphs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ing struct {
		IDs []int `json:"ids"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(ing.IDs) != 2 {
		t.Fatalf("ingest status %d ids %v", resp.StatusCode, ing.IDs)
	}
	ts.Close() // abandon the database without Close: simulated crash

	re, err := gsim.Open(dir, gsim.WithAutoCheckpoint(0))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 2 {
		t.Fatalf("recovered Len = %d, want 2", re.Len())
	}
	for i, id := range ing.IDs {
		q := re.Query(id)
		want := []string{"a", "b"}[i]
		if q.Name() != want {
			t.Fatalf("graph %d = %q, want %q", id, q.Name(), want)
		}
	}
}
