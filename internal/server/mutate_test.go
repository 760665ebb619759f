package server

import (
	"net/http"
	"strconv"
	"testing"

	"gsim"
)

// ingestOne stores one two-vertex graph via the JSON ingest endpoint and
// returns its assigned graph ID.
func ingestOne(t *testing.T, h http.Handler, name string) int {
	t.Helper()
	var resp ingestResponse
	rec := do(t, h, http.MethodPost, "/v1/graphs", ingestGraphs{Graphs: []wireGraph{{
		Name:     name,
		Vertices: []string{"mut-A", "mut-B"},
		Edges:    []wireEdge{{U: 0, V: 1, Label: "mut-e"}},
	}}}, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
	}
	if resp.Stored != 1 || len(resp.IDs) != 1 {
		t.Fatalf("ingest response %+v", resp)
	}
	return resp.IDs[0]
}

// TestDeleteEndpoint: DELETE /v1/graphs/{id} removes the graph, bumps the
// epoch, answers 404 on a repeat, and 400 on a malformed ID.
func TestDeleteEndpoint(t *testing.T) {
	fx := newFixture(t, 8)
	h := fx.srv.Handler()
	id := ingestOne(t, h, "victim")
	before := fx.db.Len()
	epochBefore := fx.db.Epoch()

	var del deleteResponse
	rec := do(t, h, http.MethodDelete, "/v1/graphs/"+itoa(id), nil, &del)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body.String())
	}
	if del.Deleted != 1 || del.Graphs != before-1 || del.Epoch != epochBefore+1 {
		t.Fatalf("delete response %+v (before: %d graphs, epoch %d)", del, before, epochBefore)
	}
	if rec := do(t, h, http.MethodDelete, "/v1/graphs/"+itoa(id), nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("second delete: %d, want 404", rec.Code)
	}
	if rec := do(t, h, http.MethodDelete, "/v1/graphs/xyz", nil, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed id: %d, want 400", rec.Code)
	}
	if rec := do(t, h, http.MethodGet, "/v1/graphs/"+itoa(id), nil, nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET on delete route: %d, want 405", rec.Code)
	}
}

// TestDeleteInvalidatesSearch: a graph visible to search disappears after
// DELETE, and the cached pre-delete result is not served. The server owns
// a fresh empty database; LSAP needs no priors.
func TestDeleteInvalidatesSearch(t *testing.T) {
	db := gsim.New(gsim.WithName("mut"))
	srv := New(Config{DB: db, CacheEntries: 32})
	h := srv.Handler()
	ingestOne(t, h, "decoy")
	id := ingestOne(t, h, "findme")

	// The ingested graph is its own perfect match (GED 0).
	req := searchRequest{Graph: wireGraph{
		Vertices: []string{"mut-A", "mut-B"},
		Edges:    []wireEdge{{U: 0, V: 1, Label: "mut-e"}},
	}, wireOptions: wireOptions{Method: "lsap", Tau: 0}}
	var res searchResponse
	if rec := do(t, h, http.MethodPost, "/v1/search", req, &res); rec.Code != http.StatusOK {
		t.Fatalf("search: %d %s", rec.Code, rec.Body.String())
	}
	found := false
	for _, m := range res.Matches {
		if m.Index == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("ingested graph %d not matched before delete: %+v", id, res.Matches)
	}
	if rec := do(t, h, http.MethodDelete, "/v1/graphs/"+itoa(id), nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d", rec.Code)
	}
	var after searchResponse
	rec := do(t, h, http.MethodPost, "/v1/search", req, &after)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-delete search: %d", rec.Code)
	}
	if rec.Header().Get(cacheHeader) == "hit" {
		t.Fatal("post-delete search served from cache")
	}
	for _, m := range after.Matches {
		if m.Index == id {
			t.Fatalf("deleted graph %d still matched", id)
		}
	}
	if after.Epoch <= res.Epoch {
		t.Fatalf("epoch did not advance: %d → %d", res.Epoch, after.Epoch)
	}
}

// TestUpdateByRePost: re-POSTing a graph with "id" replaces the stored
// graph in place — same ID, new content — atomically with any inserts in
// the batch; unknown IDs answer 404 and commit nothing.
func TestUpdateByRePost(t *testing.T) {
	fx := newFixture(t, 8)
	h := fx.srv.Handler()
	id := ingestOne(t, h, "orig")
	graphsBefore := fx.db.Len()

	var resp ingestResponse
	rec := do(t, h, http.MethodPost, "/v1/graphs", ingestGraphs{Graphs: []wireGraph{
		{ID: &id, Name: "replaced", Vertices: []string{"mut-C", "mut-C", "mut-C"}},
		{Name: "extra", Vertices: []string{"mut-D"}},
	}}, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("update: %d %s", rec.Code, rec.Body.String())
	}
	if resp.Stored != 1 || resp.Updated != 1 || len(resp.IDs) != 2 || resp.IDs[0] != id {
		t.Fatalf("update response %+v", resp)
	}
	if fx.db.Len() != graphsBefore+1 {
		t.Fatalf("Len = %d, want %d", fx.db.Len(), graphsBefore+1)
	}
	if got := fx.db.Query(id); got.Name() != "replaced" || got.NumVertices() != 3 {
		t.Fatalf("stored graph not replaced: %s/%d vertices", got.Name(), got.NumVertices())
	}

	// Unknown update target: 404, and the insert in the same batch must
	// not have landed (none-or-all).
	lenBefore := fx.db.Len()
	bogus := 1 << 20
	rec = do(t, h, http.MethodPost, "/v1/graphs", ingestGraphs{Graphs: []wireGraph{
		{Name: "casualty", Vertices: []string{"mut-E"}},
		{ID: &bogus, Name: "nope", Vertices: []string{"mut-E"}},
	}}, nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("bogus update: %d, want 404", rec.Code)
	}
	if fx.db.Len() != lenBefore {
		t.Fatalf("failed batch stored graphs: %d → %d", lenBefore, fx.db.Len())
	}
}

// TestQueryRejectsID: the ingest-only "id" field on a query graph is a
// 400, not a silent ignore.
func TestQueryRejectsID(t *testing.T) {
	fx := newFixture(t, 0)
	h := fx.srv.Handler()
	id := 3
	req := searchRequest{Graph: wireGraph{ID: &id, Vertices: []string{"x"}}, wireOptions: wireOptions{Tau: 1}}
	if rec := do(t, h, http.MethodPost, "/v1/search", req, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("search with id: %d, want 400", rec.Code)
	}
}

// TestStatsExposesShardsAndDict: /v1/stats reports the shard layout and
// the branch-dictionary lifecycle counters.
func TestStatsExposesShardsAndDict(t *testing.T) {
	fx := newFixture(t, 0)
	h := fx.srv.Handler()
	id := ingestOne(t, h, "doomed")
	if rec := do(t, h, http.MethodDelete, "/v1/graphs/"+itoa(id), nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d", rec.Code)
	}
	var st statsResponse
	if rec := do(t, h, http.MethodGet, "/v1/stats", nil, &st); rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	if st.Database.Shards != fx.db.NumShards() || st.Database.Shards < 1 {
		t.Fatalf("stats shards %d, db %d", st.Database.Shards, fx.db.NumShards())
	}
	if st.Database.ShardMax < st.Database.ShardMin {
		t.Fatalf("shard extremes inverted: %+v", st.Database)
	}
	if st.Model.BranchDictDead == 0 {
		t.Fatalf("no dead branch keys after delete: %+v", st.Model)
	}
}

func itoa(i int) string { return strconv.Itoa(i) }
