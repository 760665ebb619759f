package server

import (
	"fmt"
	"runtime"

	"gsim"
)

// wireGraph is the JSON form of a labeled graph: vertex i carries
// Vertices[i] as its label, edges reference vertex indexes. The same
// shape serves queries and ingest. On ingest, a graph carrying an "id"
// re-POSTs over the stored graph with that ID (an in-place update); the
// field is rejected on query endpoints.
type wireGraph struct {
	ID       *int       `json:"id,omitempty"`
	Name     string     `json:"name,omitempty"`
	Vertices []string   `json:"vertices"`
	Edges    []wireEdge `json:"edges,omitempty"`
}

// wireEdge is one undirected labeled edge; the library's whole-graph
// edge, so a decoded body builds without a copy.
type wireEdge = gsim.Edge

// wireOptions carries the per-request search knobs. Zero values defer to
// the server's defaults (method) or the library's (everything else).
type wireOptions struct {
	Method    string  `json:"method,omitempty"`
	Tau       int     `json:"tau,omitempty"`
	Gamma     float64 `json:"gamma,omitempty"`
	K         int     `json:"k,omitempty"` // /v1/topk only
	Prefilter bool    `json:"prefilter,omitempty"`
	Workers   int     `json:"workers,omitempty"`
	V1Sample  int     `json:"v1_sample,omitempty"`
	V2Weight  float64 `json:"v2_weight,omitempty"`
}

// searchRequest is the /v1/search, /v1/topk and /v1/stream body.
type searchRequest struct {
	Graph wireGraph `json:"graph"`
	wireOptions
}

// batchRequest is the /v1/batch body.
type batchRequest struct {
	Graphs []wireGraph `json:"graphs"`
	wireOptions
}

// wireMatch is one hit in a response.
type wireMatch struct {
	Index int     `json:"index"`
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// searchResponse is one query's result. Epoch is the database version the
// result was computed at — a client holding results from two different
// epochs knows the database changed in between.
type searchResponse struct {
	Method    string      `json:"method"`
	Tau       int         `json:"tau"`
	Gamma     float64     `json:"gamma,omitempty"`
	K         int         `json:"k,omitempty"`
	Epoch     uint64      `json:"epoch"`
	Scanned   int         `json:"scanned"`
	ElapsedNS int64       `json:"elapsed_ns"`
	Matches   []wireMatch `json:"matches"`
	// Stages echoes the per-stage breakdown for ?debug=trace requests
	// (absent otherwise).
	Stages *wireStages `json:"stages,omitempty"`
}

// wireStages is the JSON form of a search's stage breakdown (see
// gsim.StageStats). Durations are nanoseconds; prefilter/score are the
// traced per-entry split, summed across scan workers.
type wireStages struct {
	PrepareNS   int64 `json:"prepare_ns"`
	CutNS       int64 `json:"cut_ns"`
	ScanNS      int64 `json:"scan_ns"`
	MergeNS     int64 `json:"merge_ns"`
	PrefilterNS int64 `json:"prefilter_ns"`
	ScoreNS     int64 `json:"score_ns"`
	Pruned      int   `json:"pruned"`
	Visited     int   `json:"visited"`
}

// toWireStages renders a traced breakdown, or nil for an untraced
// search (the coarse spans still exist, but responses only echo stages
// when the caller asked for the trace).
func toWireStages(st gsim.StageStats) *wireStages {
	if !st.Traced {
		return nil
	}
	return &wireStages{
		PrepareNS:   st.PrepareNS,
		CutNS:       st.CutNS,
		ScanNS:      st.ScanNS,
		MergeNS:     st.MergeNS,
		PrefilterNS: st.PrefilterNS,
		ScoreNS:     st.ScoreNS,
		Pruned:      st.Pruned,
		Visited:     st.Visited,
	}
}

// batchResponse is the /v1/batch body: one result per input graph, in
// input order.
type batchResponse struct {
	Epoch   uint64           `json:"epoch"`
	Results []searchResponse `json:"results"`
}

// streamTrailer is the final NDJSON record of a /v1/stream response; its
// presence tells the client the scan finished (and how) rather than the
// connection dying mid-stream.
type streamTrailer struct {
	Done      bool   `json:"done"`
	Scanned   int    `json:"scanned"`
	Matches   int    `json:"matches"`
	Pruned    int    `json:"pruned"`
	Epoch     uint64 `json:"epoch"`
	ElapsedNS int64  `json:"elapsed_ns"`
	// Stages is the per-stage breakdown, present for ?debug=trace.
	Stages *wireStages `json:"stages,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// ingestResponse is the /v1/graphs (POST) body. IDs lists the graph ID of
// every ingested graph in request order — the handles DELETE
// /v1/graphs/{id} and update-by-re-POST accept (JSON ingest only; text
// ingest reports counts without per-graph IDs).
type ingestResponse struct {
	Stored  int    `json:"stored"`
	Updated int    `json:"updated,omitempty"`
	Graphs  int    `json:"graphs"`
	Epoch   uint64 `json:"epoch"`
	IDs     []int  `json:"ids,omitempty"`
}

// deleteResponse is the DELETE /v1/graphs/{id} body.
type deleteResponse struct {
	Deleted int    `json:"deleted"`
	Graphs  int    `json:"graphs"`
	Epoch   uint64 `json:"epoch"`
}

// clampWorkers bounds a request's scan parallelism by the server's
// per-request limit (Config.Workers, defaulting to GOMAXPROCS): a client
// may lower the worker count but never raise it past the operator's
// bound — an uncapped "workers" field on a public endpoint would let one
// request spawn a goroutine per stored graph.
func (s *Server) clampWorkers(requested int) int {
	limit := s.cfg.Workers
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	if requested <= 0 || requested > limit {
		return limit
	}
	return requested
}

// resolveMethod maps the request's method name to the library constant,
// falling back to the server default for the empty string.
func (s *Server) resolveMethod(name string) (gsim.Method, error) {
	if name == "" {
		return s.cfg.DefaultMethod, nil
	}
	m, err := gsim.ParseMethod(name)
	if err != nil {
		return 0, fmt.Errorf("%w: %q is not a method", gsim.ErrBadOptions, name)
	}
	return m, nil
}

// fill sets one graph builder to the wire-form graph in one step.
func fill(b *gsim.GraphBuilder, wg wireGraph) (*gsim.GraphBuilder, error) {
	if len(wg.Vertices) == 0 {
		return nil, fmt.Errorf("graph %q has no vertices", wg.Name)
	}
	for _, e := range wg.Edges {
		if e.U < 0 || e.U >= len(wg.Vertices) || e.V < 0 || e.V >= len(wg.Vertices) {
			return nil, fmt.Errorf("graph %q: edge (%d,%d) references a vertex outside [0,%d)",
				wg.Name, e.U, e.V, len(wg.Vertices))
		}
	}
	if err := b.Set(wg.Vertices, wg.Edges); err != nil {
		return nil, fmt.Errorf("graph %q: %w", wg.Name, err)
	}
	return b, nil
}

// buildQuery constructs a query graph. Labels the database has never
// seen stay ephemeral (Database.NewQuery), so arbitrary query traffic
// cannot grow the shared label dictionary. The ingest-only "id" field is
// rejected: a silently ignored update marker would make the caller
// believe the stored graph changed.
func (s *Server) buildQuery(wg wireGraph) (*gsim.Query, error) {
	if wg.ID != nil {
		return nil, fmt.Errorf("%w: \"id\" applies to ingest only", gsim.ErrBadOptions)
	}
	b, err := fill(s.db.NewQuery(wg.Name), wg)
	if err != nil {
		return nil, err
	}
	return b.Query(), nil
}

// buildStored constructs a graph for ingest against the shared
// dictionary, ready to Store.
func (s *Server) buildStored(wg wireGraph) (*gsim.GraphBuilder, error) {
	return fill(s.db.NewGraph(wg.Name), wg)
}

// searchOptions projects the wire options onto the library's, resolving
// the method and rejecting fields the endpoint does not consume — a
// silently dropped option would make the caller believe it applied. The
// returned echo carries the effective values (library defaults filled
// in) so responses report the query that actually ran, not the zeroes
// the client omitted.
func (s *Server) searchOptions(o wireOptions) (gsim.SearchOptions, wireOptions, error) {
	if o.K != 0 {
		return gsim.SearchOptions{}, o, fmt.Errorf("%w: \"k\" applies to /v1/topk only", gsim.ErrBadOptions)
	}
	m, err := s.resolveMethod(o.Method)
	if err != nil {
		return gsim.SearchOptions{}, o, err
	}
	workers := s.clampWorkers(o.Workers)
	echo := o
	echo.Method = m.String()
	if echo.Tau <= 0 {
		echo.Tau = 3 // SearchOptions.withDefaults
	}
	if echo.Gamma <= 0 {
		echo.Gamma = 0.9
	}
	return gsim.SearchOptions{
		Method:    m,
		Tau:       o.Tau,
		Gamma:     o.Gamma,
		Workers:   workers,
		V1Sample:  o.V1Sample,
		V2Weight:  o.V2Weight,
		Prefilter: o.Prefilter,
	}, echo, nil
}

// topKOptions is searchOptions for the ranking endpoint.
func (s *Server) topKOptions(o wireOptions) (gsim.TopKOptions, wireOptions, error) {
	if o.Gamma != 0 {
		return gsim.TopKOptions{}, o, fmt.Errorf("%w: \"gamma\" does not apply to /v1/topk (ranking has no probability threshold)", gsim.ErrBadOptions)
	}
	if o.Prefilter {
		return gsim.TopKOptions{}, o, fmt.Errorf("%w: \"prefilter\" does not apply to /v1/topk (ranking scores every graph)", gsim.ErrBadOptions)
	}
	m, err := s.resolveMethod(o.Method)
	if err != nil {
		return gsim.TopKOptions{}, o, err
	}
	workers := s.clampWorkers(o.Workers)
	echo := o
	echo.Method = m.String()
	if echo.K <= 0 {
		echo.K = 10 // prepareTopK's defaults
	}
	if echo.Tau <= 0 {
		echo.Tau = s.db.TauMax()
		if echo.Tau <= 0 {
			echo.Tau = 10
		}
	}
	return gsim.TopKOptions{
		Method:   m,
		K:        o.K,
		Tau:      o.Tau,
		Workers:  workers,
		V1Sample: o.V1Sample,
		V2Weight: o.V2Weight,
	}, echo, nil
}

// toResponse renders one library Result. echo carries the effective
// options (defaults applied — see searchOptions/topKOptions), so the
// response reports the query that actually ran; the epoch is the
// result's own snapshot epoch — exact even when a mutation raced the
// request.
func toResponse(res *gsim.Result, echo wireOptions) searchResponse {
	matches := make([]wireMatch, len(res.Matches))
	for i, m := range res.Matches {
		matches[i] = wireMatch{Index: m.Index, Name: m.Name, Score: m.Score}
	}
	return searchResponse{
		Method:    echo.Method,
		Tau:       echo.Tau,
		Gamma:     echo.Gamma,
		K:         echo.K,
		Epoch:     res.Epoch,
		Scanned:   res.Scanned,
		ElapsedNS: res.Elapsed.Nanoseconds(),
		Matches:   matches,
		Stages:    toWireStages(res.Stages),
	}
}
