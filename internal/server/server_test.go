package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsim"
	"gsim/internal/dataset"
)

// fixture builds a served database over the deterministic cluster corpus
// the library tests use, with priors fitted.
type fixture struct {
	ds  *dataset.Dataset
	db  *gsim.Database
	srv *Server
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name: "srv", NumGraphs: 60, QueryFraction: 0.1,
		MinV: 7, MaxV: 10, ExtraPerV: 0.25, ScaleFree: true,
		LV: 30, LE: 3, PoolSize: 5, ClusterSize: 10, ModSlots: 4,
		GuardTau: 5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := gsim.FromCollection(ds.Col, ds.DBGraphs)
	if err := db.BuildPriors(gsim.OfflineConfig{TauMax: 5, SamplePairs: 4000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return &fixture{ds: ds, db: db, srv: New(Config{DB: db})}
}

// wireQuery renders stored graph i in wire form, so the HTTP path and the
// library path run the structurally identical query.
func (fx *fixture) wireQuery(i int) wireGraph {
	g := fx.ds.Col.Graph(i)
	wg := wireGraph{Name: g.Name}
	for v := 0; v < g.NumVertices(); v++ {
		wg.Vertices = append(wg.Vertices, fx.ds.Col.Dict.Name(g.VertexLabel(v)))
	}
	for _, e := range g.Edges() {
		wg.Edges = append(wg.Edges, wireEdge{
			U: int(e.U), V: int(e.V),
			Label: fx.ds.Col.Dict.Name(e.Label),
		})
	}
	return wg
}

// do posts body to path on the handler and decodes the JSON response.
func do(t *testing.T, h http.Handler, method, path string, body any, out any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %s response %q: %v", path, rec.Body.String(), err)
		}
	}
	return rec
}

// parseStream consumes one /v1/stream body with the handler's own wire
// types and asserts the NDJSON framing: every line is valid JSON, exactly
// one record — the trailer — carries a "done" key, and nothing follows
// it. Violations are reported through t.Errorf, so it may run off the
// test goroutine, and yield a zero trailer (done: false), which no
// caller accepts.
func parseStream(t testing.TB, r io.Reader) ([]wireMatch, streamTrailer) {
	t.Helper()
	var (
		matches []wireMatch
		trailer streamTrailer
		done    bool
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if done {
			t.Errorf("stream: data after the done-trailer: %q", line)
			return nil, streamTrailer{}
		}
		// Only the trailer has a "done" key; the pointer tells
		// done:false from absent.
		var probe struct {
			Done *bool `json:"done"`
		}
		err := json.Unmarshal(line, &probe)
		if err == nil && probe.Done != nil {
			done = true
			err = json.Unmarshal(line, &trailer)
		} else if err == nil {
			var m wireMatch
			err = json.Unmarshal(line, &m)
			matches = append(matches, m)
		}
		if err != nil {
			t.Errorf("stream: malformed record %q: %v", line, err)
			return nil, streamTrailer{}
		}
	}
	if err := sc.Err(); err != nil || !done {
		t.Errorf("stream: ended without a done-trailer after %d matches (read error: %v)", len(matches), err)
		return nil, streamTrailer{}
	}
	return matches, trailer
}

func matchesEqual(a []wireMatch, b []gsim.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || a[i].Name != b[i].Name || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// TestSearchMatchesLibrary: /v1/search returns exactly what the library
// API returns, per method.
func TestSearchMatchesLibrary(t *testing.T) {
	fx := newFixture(t)
	h := fx.srv.Handler()
	qi := fx.ds.Queries[0]
	for _, m := range []string{"gbda", "lsap", "greedysort"} {
		mm, err := gsim.ParseMethod(m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fx.db.Search(gsim.CollectionQuery(fx.ds.Col, qi), gsim.SearchOptions{Method: mm, Tau: 3, Gamma: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		var got searchResponse
		rec := do(t, h, "POST", "/v1/search", searchRequest{
			Graph:       fx.wireQuery(qi),
			wireOptions: wireOptions{Method: m, Tau: 3, Gamma: 0.8},
		}, &got)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", m, rec.Code, rec.Body.String())
		}
		if !matchesEqual(got.Matches, want.Matches) {
			t.Fatalf("%s: HTTP matches %+v != library %+v", m, got.Matches, want.Matches)
		}
		if got.Scanned != want.Scanned {
			t.Fatalf("%s: scanned %d != %d", m, got.Scanned, want.Scanned)
		}
	}
}

// TestTopKMatchesLibrary: /v1/topk ranks identically to SearchTopK.
func TestTopKMatchesLibrary(t *testing.T) {
	fx := newFixture(t)
	qi := fx.ds.Queries[0]
	want, err := fx.db.SearchTopK(gsim.CollectionQuery(fx.ds.Col, qi), gsim.TopKOptions{Method: gsim.GBDA, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	var got searchResponse
	rec := do(t, fx.srv.Handler(), "POST", "/v1/topk", searchRequest{
		Graph:       fx.wireQuery(qi),
		wireOptions: wireOptions{K: 5},
	}, &got)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !matchesEqual(got.Matches, want.Matches) {
		t.Fatalf("HTTP topk %+v != library %+v", got.Matches, want.Matches)
	}
	// The response echoes the effective options: the omitted tau filled
	// with the prior ceiling the ranking actually ran at.
	if got.K != 5 || got.Tau != fx.db.TauMax() || got.Method != "GBDA" {
		t.Fatalf("effective echo k=%d tau=%d method=%q, want k=5 tau=%d method=GBDA",
			got.K, got.Tau, got.Method, fx.db.TauMax())
	}
}

// TestBatchMatchesLibrary: /v1/batch equals SearchBatch result-for-result.
func TestBatchMatchesLibrary(t *testing.T) {
	fx := newFixture(t)
	qis := fx.ds.Queries[:3]
	queries := make([]*gsim.Query, len(qis))
	graphs := make([]wireGraph, len(qis))
	for i, qi := range qis {
		queries[i] = gsim.CollectionQuery(fx.ds.Col, qi)
		graphs[i] = fx.wireQuery(qi)
	}
	want, err := fx.db.SearchBatch(context.Background(), queries, gsim.SearchOptions{Tau: 3, Gamma: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	var got batchResponse
	rec := do(t, fx.srv.Handler(), "POST", "/v1/batch", batchRequest{
		Graphs:      graphs,
		wireOptions: wireOptions{Tau: 3, Gamma: 0.8},
	}, &got)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if len(got.Results) != len(want) {
		t.Fatalf("results: %d, want %d", len(got.Results), len(want))
	}
	for i := range want {
		if !matchesEqual(got.Results[i].Matches, want[i].Matches) {
			t.Fatalf("batch result %d: HTTP %+v != library %+v", i, got.Results[i].Matches, want[i].Matches)
		}
	}
}

// TestStreamEndpoint: /v1/stream emits each match as an NDJSON line plus
// a done trailer, and the match set equals the collecting endpoint's.
func TestStreamEndpoint(t *testing.T) {
	fx := newFixture(t)
	qi := fx.ds.Queries[0]
	want, err := fx.db.Search(gsim.CollectionQuery(fx.ds.Col, qi), gsim.SearchOptions{Tau: 3, Gamma: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, fx.srv.Handler(), "POST", "/v1/stream", searchRequest{
		Graph:       fx.wireQuery(qi),
		wireOptions: wireOptions{Tau: 3, Gamma: 0.8},
	}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	matches, trailer := parseStream(t, rec.Body)
	if !trailer.Done || trailer.Error != "" {
		t.Fatalf("trailer %+v: want done and no error", trailer)
	}
	gotIdx := map[int]bool{}
	for _, m := range matches {
		gotIdx[m.Index] = true
	}
	if trailer.Matches != len(want.Matches) || len(gotIdx) != len(want.Matches) {
		t.Fatalf("streamed %d matches (trailer %d), want %d", len(gotIdx), trailer.Matches, len(want.Matches))
	}
	for _, m := range want.Matches {
		if !gotIdx[m.Index] {
			t.Fatalf("match %d missing from stream", m.Index)
		}
	}
}

// TestConcurrentMixedTraffic drives streams, ingest and delete at once
// over real HTTP for ~300 ms: every response is 200, every stream ends in
// a done-trailer with no error while writers bump the epoch under the
// scans, and the database ends holding exactly what was not deleted.
func TestConcurrentMixedTraffic(t *testing.T) {
	db := gsim.New(gsim.WithName("mixed"))
	ts := httptest.NewServer(New(Config{DB: db, DefaultMethod: gsim.LSAP}).Handler())
	defer ts.Close()
	graph := wireGraph{Vertices: []string{"mut-A", "mut-B"}, Edges: []wireEdge{{U: 0, V: 1, Label: "mut-e"}}}
	// call sends one JSON request and returns the body of its 200 reply.
	call := func(method, path string, body any) []byte {
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(body)
		req, _ := http.NewRequest(method, ts.URL+path, &buf)
		req.Header.Set("Content-Type", "application/json")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Errorf("%s %s: %v", method, path, err)
			return nil
		}
		defer resp.Body.Close()
		reply, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("%s %s: status %d, read error %v: %s", method, path, resp.StatusCode, err, reply)
		}
		return reply
	}
	ingest := func() int {
		var resp ingestResponse
		err := json.Unmarshal(call("POST", "/v1/graphs", ingestGraphs{Graphs: []wireGraph{graph}}), &resp)
		if err != nil || len(resp.IDs) != 1 {
			t.Errorf("ingest response %+v: %v", resp, err)
			return -1
		}
		return resp.IDs[0]
	}
	const seeded = 20
	for i := 0; i < seeded; i++ {
		ingest()
	}
	var streams, kept atomic.Int64
	agents := []func(){
		func() {
			reply := call("POST", "/v1/stream", searchRequest{Graph: graph, wireOptions: wireOptions{Tau: 1}})
			matches, trailer := parseStream(t, bytes.NewReader(reply))
			if !trailer.Done || trailer.Error != "" || trailer.Matches != len(matches) || len(matches) < seeded {
				t.Errorf("stream: %d matches, trailer %+v", len(matches), trailer)
			}
			streams.Add(1)
		},
		func() { ingest(); kept.Add(1) },
		func() { call("DELETE", "/v1/graphs/"+itoa(ingest()), nil) },
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	for _, agent := range append(agents, agents[0]) { // two streamers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && !t.Failed() {
				agent()
			}
		}()
	}
	wg.Wait()
	if streams.Load() == 0 || db.Len() != seeded+int(kept.Load()) {
		t.Fatalf("%d streams completed; %d graphs stored, want %d", streams.Load(), db.Len(), seeded+int(kept.Load()))
	}
}

// TestRepeatSearchAndEpochAdvance: a search repeated with no write in
// between answers the same matches at the same epoch; an ingest moves the
// epoch by one, the next search reports it, and the new graph is found.
func TestRepeatSearchAndEpochAdvance(t *testing.T) {
	fx := newFixture(t)
	h := fx.srv.Handler()
	req := searchRequest{
		Graph:       fx.wireQuery(fx.ds.Queries[0]),
		wireOptions: wireOptions{Tau: 3, Gamma: 0.8},
	}
	var first, second searchResponse
	do(t, h, "POST", "/v1/search", req, &first)
	do(t, h, "POST", "/v1/search", req, &second)
	if second.Epoch != first.Epoch || !slices.Equal(second.Matches, first.Matches) {
		t.Fatalf("repeated search differs: %+v vs %+v", second, first)
	}
	var st statsResponse
	do(t, h, "GET", "/v1/stats", nil, &st)
	// The GBDA search built a posterior table, and the stored graphs
	// interned branch shapes — both surface in the model section.
	if st.Model.PosteriorTables == 0 || st.Model.PosteriorTableBytes <= 0 || st.Model.BranchDictSize == 0 {
		t.Fatalf("model stats not populated after a GBDA search: %+v", st.Model)
	}
	epochBefore := st.Epoch
	if epochBefore != first.Epoch {
		t.Fatalf("stats epoch %d, search epoch %d with no write between", epochBefore, first.Epoch)
	}

	// Mutate: ingest one graph as .gsim text.
	text := "g fresh 3\nv 0 L0\nv 1 L1\nv 2 L2\ne 0 1 e0\ne 1 2 e0\n"
	ingest := httptest.NewRequest("POST", "/v1/graphs", strings.NewReader(text))
	ingest.Header.Set("Content-Type", "text/plain")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, ingest)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
	}
	var ing ingestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Stored != 1 || ing.Epoch != epochBefore+1 {
		t.Fatalf("ingest response %+v, want stored=1 epoch=%d", ing, epochBefore+1)
	}

	// The same query now reports the new epoch.
	var third searchResponse
	do(t, h, "POST", "/v1/search", req, &third)
	if third.Epoch != epochBefore+1 {
		t.Fatalf("post-ingest epoch %d, want %d", third.Epoch, epochBefore+1)
	}
	// And the ingested graph is its own match.
	fresh := searchRequest{
		Graph: wireGraph{
			Vertices: []string{"L0", "L1", "L2"},
			Edges:    []wireEdge{{U: 0, V: 1, Label: "e0"}, {U: 1, V: 2, Label: "e0"}},
		},
		wireOptions: wireOptions{Method: "lsap", Tau: 0},
	}
	var found searchResponse
	do(t, h, "POST", "/v1/search", fresh, &found)
	if !slices.ContainsFunc(found.Matches, func(m wireMatch) bool { return m.Name == "fresh" }) {
		t.Fatalf("ingested graph not found: %+v", found.Matches)
	}
}

// TestIngestJSON stores graphs from wire form and makes them searchable.
func TestIngestJSON(t *testing.T) {
	fx := newFixture(t)
	h := fx.srv.Handler()
	before := fx.db.Len()
	var ing ingestResponse
	rec := do(t, h, "POST", "/v1/graphs", ingestGraphs{Graphs: []wireGraph{
		{Name: "j0", Vertices: []string{"A", "B"}, Edges: []wireEdge{{U: 0, V: 1, Label: "x"}}},
		{Name: "j1", Vertices: []string{"A", "B", "C"}, Edges: []wireEdge{{U: 0, V: 1, Label: "x"}, {U: 1, V: 2, Label: "x"}}},
	}}, &ing)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ing.Stored != 2 || ing.Graphs != before+2 {
		t.Fatalf("ingest %+v, want stored=2 graphs=%d", ing, before+2)
	}
	if fx.db.Len() != before+2 {
		t.Fatalf("db length %d, want %d", fx.db.Len(), before+2)
	}
}

// TestErrorMapping: 400 for malformed requests and bad options, 409 for
// searches the database has no priors for, 405 for wrong verbs.
func TestErrorMapping(t *testing.T) {
	fx := newFixture(t)
	h := fx.srv.Handler()
	wq := fx.wireQuery(fx.ds.Queries[0])

	// Malformed JSON body.
	req := httptest.NewRequest("POST", "/v1/search", strings.NewReader("{nope"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", rec.Code)
	}

	// Bytes after the request object: a second object, or garbage after
	// the graph. Reading only the first value would answer 200 and drop
	// the rest.
	first, err := json.Marshal(searchRequest{Graph: wq, wireOptions: wireOptions{Tau: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{`{"tau":3}{"tau":99}`, string(first) + `{"tau":99}`, string(first) + "garbage"} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/search", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("trailing bytes %q: status %d: %s", body[len(body)-12:], rec.Code, rec.Body.String())
		}
	}

	// Unknown method name.
	rec = do(t, h, "POST", "/v1/search", searchRequest{Graph: wq, wireOptions: wireOptions{Method: "nope"}}, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown method: status %d: %s", rec.Code, rec.Body.String())
	}

	// Tau beyond the fitted prior ceiling (ErrBadOptions from the scorer).
	rec = do(t, h, "POST", "/v1/search", searchRequest{Graph: wq, wireOptions: wireOptions{Tau: 99}}, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("tau beyond ceiling: status %d: %s", rec.Code, rec.Body.String())
	}

	// Non-rankable method on /v1/topk.
	rec = do(t, h, "POST", "/v1/topk", searchRequest{Graph: wq, wireOptions: wireOptions{Method: "exact", K: 3}}, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("non-rankable topk: status %d: %s", rec.Code, rec.Body.String())
	}

	// Edge referencing a missing vertex.
	bad := wireGraph{Vertices: []string{"A"}, Edges: []wireEdge{{U: 0, V: 5}}}
	rec = do(t, h, "POST", "/v1/search", searchRequest{Graph: bad}, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad edge: status %d: %s", rec.Code, rec.Body.String())
	}

	// GBDA search against a priorless database → 409.
	empty := gsim.New(gsim.WithName("empty"))
	for i := 0; i < 3; i++ {
		b := empty.NewGraph(fmt.Sprintf("g%d", i))
		b.AddVertex("A")
		b.AddVertex("B")
		if err := b.AddEdge(0, 1, "x"); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Store(); err != nil {
			t.Fatal(err)
		}
	}
	srv2 := New(Config{DB: empty})
	rec = do(t, srv2.Handler(), "POST", "/v1/search", searchRequest{
		Graph: wireGraph{Vertices: []string{"A", "B"}, Edges: []wireEdge{{U: 0, V: 1, Label: "x"}}},
	}, nil)
	if rec.Code != http.StatusConflict {
		t.Fatalf("priorless GBDA: status %d: %s", rec.Code, rec.Body.String())
	}

	// Wrong verb.
	req = httptest.NewRequest("GET", "/v1/search", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/search: status %d", rec.Code)
	}

	// A graph too large to journal is the client's to shrink.
	rec = httptest.NewRecorder()
	writeMutationError(rec, fmt.Errorf("gsim: graph 0: %w", gsim.ErrGraphTooLarge), http.StatusBadRequest)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("ErrGraphTooLarge: status %d, want 413", rec.Code)
	}
}

// TestOversizedBodiesAnswer413: a body over MaxBodyBytes answers 413 on
// every body-taking route, ingest in either content type included — not
// the 400 of a malformed body, which a client would not retry smaller.
func TestOversizedBodiesAnswer413(t *testing.T) {
	fx := newFixture(t)
	h := New(Config{DB: fx.db, MaxBodyBytes: 64}).Handler()
	graph := `{"vertices":["C","N","O","C","N","O","C","N","O"],"edges":[{"u":0,"v":1,"label":"s"}]}`
	query := `{"graph":` + graph + `,"tau":3}`
	text := "g big 5\nv 0 C\nv 1 N\nv 2 O\nv 3 C\nv 4 N\ne 0 1 s\ne 1 2 s\ne 2 3 s\ne 3 4 s\ne 4 0 s\n"
	for _, tc := range []struct {
		path, contentType, body string
	}{
		{"/v1/search", "application/json", query},
		{"/v1/topk", "application/json", query},
		{"/v1/stream", "application/json", query},
		{"/v1/batch", "application/json", `{"graphs":[` + graph + `]}`},
		{"/v1/graphs", "application/json", `{"graphs":[` + graph + `]}`},
		{"/v1/graphs", "text/plain", text},
	} {
		if len(tc.body) <= 64 {
			t.Fatalf("%s %s: a %d-byte body is not over the cap", tc.path, tc.contentType, len(tc.body))
		}
		req := httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body))
		req.Header.Set("Content-Type", tc.contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s: status %d, want 413: %s", tc.path, tc.contentType, rec.Code, rec.Body.String())
		}
	}
}

// TestTextIngestHugeHeader: a .gsim header whose vertex count no input
// backs is a 400, and stores nothing; the count once sized an allocation,
// so this 21-byte body asked for gigabytes and the runtime killed the
// process.
func TestTextIngestHugeHeader(t *testing.T) {
	fx := newFixture(t)
	h := fx.srv.Handler()
	before := fx.db.Len()
	req := httptest.NewRequest("POST", "/v1/graphs", strings.NewReader("g x 4000000000\nv 0 a\n"))
	req.Header.Set("Content-Type", "text/plain")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if fx.db.Len() != before {
		t.Fatalf("%d graphs stored, want %d", fx.db.Len(), before)
	}
}

// TestQueryLabelsStayEphemeral: query traffic with labels the database
// has never seen must not grow the shared dictionary — the long-running
// server would otherwise leak an entry per distinct label forever.
func TestQueryLabelsStayEphemeral(t *testing.T) {
	fx := newFixture(t)
	h := fx.srv.Handler()
	before := fx.ds.Col.Dict.Len()
	for i := 0; i < 20; i++ {
		g := wireGraph{
			Vertices: []string{fmt.Sprintf("unseen-%d-a", i), fmt.Sprintf("unseen-%d-b", i)},
			Edges:    []wireEdge{{U: 0, V: 1, Label: fmt.Sprintf("unseen-e%d", i)}},
		}
		rec := do(t, h, "POST", "/v1/search", searchRequest{Graph: g, wireOptions: wireOptions{Method: "lsap", Tau: 2}}, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("search %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	if after := fx.ds.Col.Dict.Len(); after != before {
		t.Fatalf("query traffic grew the dictionary: %d -> %d", before, after)
	}
}

// TestEndpointRejectsForeignOptions: options an endpoint does not consume
// are 400, not silently dropped.
func TestEndpointRejectsForeignOptions(t *testing.T) {
	fx := newFixture(t)
	h := fx.srv.Handler()
	wq := fx.wireQuery(fx.ds.Queries[0])
	cases := []struct {
		path string
		opt  wireOptions
	}{
		{"/v1/search", wireOptions{K: 5}},
		{"/v1/stream", wireOptions{K: 5}},
		{"/v1/topk", wireOptions{K: 5, Gamma: 0.9}},
		{"/v1/topk", wireOptions{K: 5, Prefilter: true}},
	}
	for _, tc := range cases {
		rec := do(t, h, "POST", tc.path, searchRequest{Graph: wq, wireOptions: tc.opt}, nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s with %+v: status %d, want 400", tc.path, tc.opt, rec.Code)
		}
	}
	// Batch shares search semantics.
	rec := do(t, h, "POST", "/v1/batch", batchRequest{Graphs: []wireGraph{wq}, wireOptions: wireOptions{K: 5}}, nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("/v1/batch with k: status %d, want 400", rec.Code)
	}
}

func TestHealthz(t *testing.T) {
	fx := newFixture(t)
	req := httptest.NewRequest("GET", "/healthz", nil)
	rec := httptest.NewRecorder()
	fx.srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
}

// TestGraphLabelRoundTrip: a graph ingested over HTTP is found by a
// structurally identical query — the dictionary interning path works end
// to end, on a fresh database whose dictionary starts empty.
func TestGraphLabelRoundTrip(t *testing.T) {
	db := gsim.New(gsim.WithName("rt"))
	h := New(Config{DB: db}).Handler()
	g := wireGraph{Name: "rt", Vertices: []string{"Zq", "Zr", "Zs"},
		Edges: []wireEdge{{U: 0, V: 1, Label: "zz"}, {U: 1, V: 2, Label: "zz"}}}
	rec := do(t, h, "POST", "/v1/graphs", ingestGraphs{Graphs: []wireGraph{g}}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
	}
	// LSAP (no priors dependency on the new labels) must find the exact
	// copy at distance 0.
	var got searchResponse
	rec = do(t, h, "POST", "/v1/search", searchRequest{Graph: g, wireOptions: wireOptions{Method: "lsap", Tau: 1}}, &got)
	if rec.Code != http.StatusOK {
		t.Fatalf("search: %d %s", rec.Code, rec.Body.String())
	}
	found := false
	for _, m := range got.Matches {
		if m.Name == "rt" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ingested graph not found by identical query: %+v", got.Matches)
	}
}
