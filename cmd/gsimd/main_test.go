package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTestDB renders a small deterministic .gsim text database: chains
// of varying length over a few labels.
func writeTestDB(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for i := 0; i < 12; i++ {
		n := 3 + i%4
		fmt.Fprintf(&b, "g chain%d %d\n", i, n)
		for v := 0; v < n; v++ {
			fmt.Fprintf(&b, "v %d L%d\n", v, (v+i)%3)
		}
		for v := 0; v+1 < n; v++ {
			fmt.Fprintf(&b, "e %d %d e%d\n", v, v+1, i%2)
		}
	}
	path := filepath.Join(t.TempDir(), "smoke.gsim")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSmoke boots the gsimd wiring exactly as main does (flags → load →
// Handler) and drives the serving loop over a real HTTP listener: health,
// stats, search, a cache hit, ingest, and the 409 for priorless GBDA.
func TestSmoke(t *testing.T) {
	srv, d, err := load(config{
		dbPath:    writeTestDB(t),
		cacheSize: 16,
		method:    "lsap", // priors-free default so the smoke test needs no offline stage
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 12 {
		t.Fatalf("preloaded %d graphs, want 12", d.Len())
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	if resp, body := get("/healthz"); resp.StatusCode != 200 || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	// A chain identical to chain0 must be found by the LSAP default.
	query := `{"graph":{"vertices":["L0","L1","L2"],"edges":[{"u":0,"v":1,"label":"e0"},{"u":1,"v":2,"label":"e0"}]},"tau":1}`
	resp, body := post("/v1/search", query)
	if resp.StatusCode != 200 {
		t.Fatalf("search: %d %s", resp.StatusCode, body)
	}
	var sr struct {
		Matches []struct {
			Name string `json:"name"`
		} `json:"matches"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range sr.Matches {
		if m.Name == "chain0" {
			found = true
		}
	}
	if !found || resp.Header.Get("X-Gsim-Cache") != "miss" {
		t.Fatalf("first search: found=%v cache=%q matches=%+v", found, resp.Header.Get("X-Gsim-Cache"), sr.Matches)
	}

	// The repeat is a cache hit with the identical body.
	resp2, body2 := post("/v1/search", query)
	if resp2.Header.Get("X-Gsim-Cache") != "hit" || string(body2) != string(body) {
		t.Fatalf("repeat search: cache=%q, bodies equal=%v", resp2.Header.Get("X-Gsim-Cache"), string(body2) == string(body))
	}

	// GBDA needs priors this server never fitted → 409.
	resp, body = post("/v1/search", `{"graph":{"vertices":["L0"]},"method":"gbda"}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("priorless gbda: %d %s", resp.StatusCode, body)
	}

	// Ingest bumps the epoch and the stats reflect everything.
	resp, body = post("/v1/graphs", `{"graphs":[{"name":"new","vertices":["L0","L1"],"edges":[{"u":0,"v":1,"label":"e0"}]}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	var st struct {
		Epoch    uint64 `json:"epoch"`
		Database struct {
			Graphs int `json:"graphs"`
		} `json:"database"`
		Model struct {
			PosteriorTables     int   `json:"posterior_tables"`
			PosteriorTableBytes int64 `json:"posterior_table_bytes"`
			BranchDictSize      int   `json:"branch_dict_size"`
		} `json:"model"`
		Cache struct {
			Hits          uint64 `json:"hits"`
			Invalidations uint64 `json:"invalidations"`
		} `json:"cache"`
	}
	_, body = get("/v1/stats")
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Database.Graphs != 13 || st.Epoch == 0 || st.Cache.Hits != 1 {
		t.Fatalf("stats after ingest: %+v", st)
	}
	// The stored chains intern branch shapes; no priors → no tables yet.
	if st.Model.BranchDictSize == 0 || st.Model.PosteriorTables != 0 {
		t.Fatalf("model stats: %+v", st.Model)
	}
}

// TestPprofHandler drives the opt-in profiling mux (-pprof): the pprof
// index and cmdline endpoints must answer on it, and it must carry none of
// the API routes.
func TestPprofHandler(t *testing.T) {
	ts := httptest.NewServer(pprofHandler())
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Fatal("API route answered on the pprof listener")
	}
}

// TestWarmAndShards: -shards sizes the store's partition count, and
// -warm pre-builds the posterior table for the configured τ̂ at startup —
// the table exists before the first query arrives. A -warm without
// priors, or beyond the prior ceiling, refuses to boot.
func TestWarmAndShards(t *testing.T) {
	srv, d, err := load(config{
		dbPath:      writeTestDB(t),
		buildPriors: true,
		tauMax:      4,
		pairs:       500,
		shards:      3,
		warmTau:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv == nil {
		t.Fatal("no server")
	}
	if d.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", d.NumShards())
	}
	if tables, bytes := d.PosteriorTableStats(); tables != 1 || bytes == 0 {
		t.Fatalf("posterior tables after -warm: %d tables, %d bytes", tables, bytes)
	}

	if _, _, err := load(config{dbPath: writeTestDB(t), warmTau: 3}); err == nil {
		t.Fatal("-warm without priors booted")
	}
	if _, _, err := load(config{
		dbPath: writeTestDB(t), buildPriors: true, tauMax: 4, pairs: 500, warmTau: 9,
	}); err == nil {
		t.Fatal("-warm beyond the prior ceiling booted")
	}
}

// TestDataDirLifecycle drives the -data path of load: first boot imports
// the -db seed file into the directory, a second boot recovers from
// the directory alone (the import flag now being a no-op), and the admin
// checkpoint endpoint is live.
func TestDataDirLifecycle(t *testing.T) {
	dbPath := writeTestDB(t)
	dataDir := filepath.Join(t.TempDir(), "data")

	srv, d, err := load(config{
		dataDir: dataDir, dbPath: dbPath, method: "lsap", fsync: "always",
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 12 {
		t.Fatalf("imported %d graphs, want 12", d.Len())
	}
	ts := httptest.NewServer(srv.Handler())
	resp, err := http.Post(ts.URL+"/v1/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}
	ts.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Second boot: the directory owns the contents; -db must not re-import
	// (delete the seed file to prove it is not consulted).
	if err := os.Remove(dbPath); err != nil {
		t.Fatal(err)
	}
	srv2, d2, err := load(config{dataDir: dataDir, dbPath: dbPath, method: "lsap"})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != 12 {
		t.Fatalf("recovered %d graphs, want 12", d2.Len())
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Persistence struct {
			Durable bool   `json:"durable"`
			Policy  string `json:"policy"`
		} `json:"persistence"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.Persistence.Durable || st.Persistence.Policy != "always" {
		t.Fatalf("persistence block %+v", st.Persistence)
	}
}

// TestBadFsyncFlag: an unknown -fsync value fails loudly at boot.
func TestBadFsyncFlag(t *testing.T) {
	_, _, err := load(config{dataDir: t.TempDir(), fsync: "sometimes"})
	if err == nil || !strings.Contains(err.Error(), "fsync") {
		t.Fatalf("err = %v, want fsync parse failure", err)
	}
}
