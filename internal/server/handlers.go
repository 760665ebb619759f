package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"strconv"
	"time"

	"gsim"
)

// bodyStatus maps a request-body error: over the MaxBodyBytes cap is 413
// (the client must learn the limit, not retry a "malformed" payload),
// anything else is the caller's status (normally 400).
func bodyStatus(err error, fallback int) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return fallback
}

// traced reports whether the request asked for the per-stage trace echo
// (?debug=trace). Traced requests run the fine per-entry stage split and
// report the breakdown in the response.
func traced(r *http.Request) bool {
	return r.URL.Query().Get("debug") == "trace"
}

// noteResult stashes a search outcome on the request's reqInfo for the
// slow-query log.
func noteResult(r *http.Request, stages gsim.StageStats, scanned, matched int) {
	if ri := info(r); ri != nil {
		ri.searched = true
		ri.stages = stages
		ri.scanned = scanned
		ri.matched = matched
	}
}

// query is a decoded /v1/search, /v1/topk or /v1/batch request: the
// graphs to search for, the effective options its responses echo, and
// the library call that answers the built queries, one result each.
type query struct {
	graphs []wireGraph
	echo   wireOptions
	batch  bool // answer with a batchResponse
	run    func(ctx context.Context, qs []*gsim.Query) ([]*gsim.Result, error)
}

// answer is the one path of the three query endpoints: read decodes the
// request, then answer builds its graphs, runs the search and writes
// what the library returned.
func (s *Server) answer(read func(r *http.Request) (query, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q, err := read(r)
		if err != nil {
			writeError(w, bodyStatus(err, http.StatusBadRequest), err)
			return
		}
		queries := make([]*gsim.Query, len(q.graphs))
		for i, wg := range q.graphs {
			if queries[i], err = s.buildQuery(wg); err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
		}
		results, err := q.run(r.Context(), queries)
		if err != nil {
			writeError(w, searchStatus(err), err)
			return
		}
		// The request's breakdown is the shared preparation once plus
		// every query's own scan.
		stages, scanned, matched := results[0].Stages, 0, 0
		for i, res := range results {
			scanned += res.Scanned
			matched += len(res.Matches)
			if i > 0 {
				st := res.Stages
				stages.ScanNS += st.ScanNS
				stages.MergeNS += st.MergeNS
				stages.PrefilterNS += st.PrefilterNS
				stages.ScoreNS += st.ScoreNS
				stages.Pruned += st.Pruned
				stages.Visited += st.Visited
			}
		}
		noteResult(r, stages, scanned, matched)
		if !q.batch {
			writeJSON(w, http.StatusOK, toResponse(results[0], q.echo))
			return
		}
		resp := batchResponse{Epoch: results[0].Epoch, Results: make([]searchResponse, len(results))}
		for i, res := range results {
			resp.Results[i] = toResponse(res, q.echo)
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// readSearch decodes a /v1/search request, answered by SearchContext.
func (s *Server) readSearch(r *http.Request) (query, error) {
	var req searchRequest
	if err := decodeBody(r, &req); err != nil {
		return query{}, err
	}
	opt, echo, err := s.searchOptions(req.wireOptions)
	if err != nil {
		return query{}, err
	}
	opt.Trace = traced(r)
	return query{graphs: []wireGraph{req.Graph}, echo: echo, run: func(ctx context.Context, qs []*gsim.Query) ([]*gsim.Result, error) {
		res, err := s.db.SearchContext(ctx, qs[0], opt)
		return []*gsim.Result{res}, err
	}}, nil
}

// readTopK decodes a /v1/topk request, answered by SearchTopKContext.
func (s *Server) readTopK(r *http.Request) (query, error) {
	var req searchRequest
	if err := decodeBody(r, &req); err != nil {
		return query{}, err
	}
	opt, echo, err := s.topKOptions(req.wireOptions)
	if err != nil {
		return query{}, err
	}
	opt.Trace = traced(r)
	return query{graphs: []wireGraph{req.Graph}, echo: echo, run: func(ctx context.Context, qs []*gsim.Query) ([]*gsim.Result, error) {
		res, err := s.db.SearchTopKContext(ctx, qs[0], opt)
		return []*gsim.Result{res}, err
	}}, nil
}

// readBatch decodes a /v1/batch request, answered by one SearchBatch.
func (s *Server) readBatch(r *http.Request) (query, error) {
	var req batchRequest
	if err := decodeBody(r, &req); err != nil {
		return query{}, err
	}
	if len(req.Graphs) == 0 {
		return query{}, fmt.Errorf("%w: batch holds no graphs", gsim.ErrBadOptions)
	}
	if len(req.Graphs) > s.cfg.MaxBatch {
		return query{}, fmt.Errorf("%w: batch holds %d graphs, limit %d", gsim.ErrBadOptions, len(req.Graphs), s.cfg.MaxBatch)
	}
	opt, echo, err := s.searchOptions(req.wireOptions)
	if err != nil {
		return query{}, err
	}
	opt.Trace = traced(r)
	return query{graphs: req.Graphs, echo: echo, batch: true, run: func(ctx context.Context, qs []*gsim.Query) ([]*gsim.Result, error) {
		return s.db.SearchBatch(ctx, qs, opt)
	}}, nil
}

// handleStream answers a threshold query as NDJSON: one match per line as
// the scan produces it (unordered, backed by SearchStream), then one
// trailer record reporting how the scan went: done, entries scanned,
// matches, elapsed wall time, the snapshot epoch and the prefilter's
// prune count — the same telemetry a unary search reports, so a
// streaming client is not blind to scan cost. With ?debug=trace the
// trailer additionally carries the per-stage breakdown. Errors before
// the first match are proper HTTP errors; errors mid-stream arrive in
// the trailer, since the 200 header is already on the wire. A client
// closing the connection cancels the scan through the request context.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, bodyStatus(err, http.StatusBadRequest), err)
		return
	}
	opt, _, err := s.searchOptions(req.wireOptions)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opt.Trace = traced(r)
	q, err := s.buildQuery(req.Graph)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	start := time.Now()
	wrote := false
	matches := 0
	st, err := s.db.SearchStreamStats(r.Context(), q, opt, func(m gsim.Match) bool {
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			wrote = true
		}
		if err := enc.Encode(wireMatch{Index: m.Index, Name: m.Name, Score: m.Score}); err != nil {
			return false // client went away; the context cancels the scan too
		}
		matches++
		if flusher != nil {
			flusher.Flush()
		}
		return true
	})
	if err != nil && !wrote {
		writeError(w, searchStatus(err), err)
		return
	}
	if !wrote {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
	}
	noteResult(r, st.Stages, st.Scanned, matches)
	trailer := streamTrailer{
		Done:      err == nil,
		Scanned:   st.Scanned,
		Matches:   matches,
		Pruned:    st.Stages.Pruned,
		Epoch:     st.Epoch,
		ElapsedNS: time.Since(start).Nanoseconds(),
		Stages:    toWireStages(st.Stages),
	}
	if err != nil {
		trailer.Error = err.Error()
	}
	enc.Encode(trailer)
}

// handleDelete removes one stored graph by ID (DELETE /v1/graphs/{id}).
// The deletion bumps the database epoch and the next search no longer
// sees the graph; its branch refcounts are released for dictionary
// compaction. Unknown or already
// deleted IDs answer 404.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: graph id %q is not an integer", gsim.ErrBadOptions, r.PathValue("id")))
		return
	}
	if err := s.db.Delete(id); err != nil {
		writeMutationError(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, deleteResponse{Deleted: 1, Graphs: s.db.Len(), Epoch: s.db.Epoch()})
}

// ingestGraphs is the /v1/graphs JSON body.
type ingestGraphs struct {
	Graphs []wireGraph `json:"graphs"`
}

// handleIngest stores graphs: a JSON body {"graphs": [...]} or raw .gsim
// text (Content-Type text/plain). A JSON graph carrying "id" updates the
// stored graph with that ID in place (the re-POST form of update) instead
// of inserting; inserts and updates land as one atomic batch. Every
// mutation bumps the database epoch, which invalidates every cached
// result — observable as the epoch field in subsequent responses and the
// invalidation counter in /v1/stats.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		ct = mt
	}
	switch ct {
	case "text/plain", "application/x-gsim":
		n, err := s.db.LoadText(r.Body)
		if err != nil {
			writeMutationError(w, fmt.Errorf("parsing .gsim text: %w", err), bodyStatus(err, http.StatusBadRequest))
			return
		}
		writeJSON(w, http.StatusOK, ingestResponse{Stored: n, Graphs: s.db.Len(), Epoch: s.db.Epoch()})
	case "", "application/json":
		var req ingestGraphs
		if err := decodeBody(r, &req); err != nil {
			writeError(w, bodyStatus(err, http.StatusBadRequest), err)
			return
		}
		if len(req.Graphs) == 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("%w: no graphs in request", gsim.ErrBadOptions))
			return
		}
		if len(req.Graphs) > s.cfg.MaxBatch {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("%w: %d graphs in request, limit %d", gsim.ErrBadOptions, len(req.Graphs), s.cfg.MaxBatch))
			return
		}
		// Build first so a malformed graph rejects the request before
		// anything is stored, then apply the whole batch atomically:
		// like the text path, a concurrent search sees none or all.
		muts := make([]gsim.BuilderMutation, len(req.Graphs))
		updated := 0
		for i, wg := range req.Graphs {
			b, err := s.buildStored(wg)
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			muts[i] = gsim.BuilderMutation{Builder: b, UpdateID: wg.ID}
			if wg.ID != nil {
				updated++
			}
		}
		ids, err := s.db.CommitAll(muts)
		if err != nil {
			writeMutationError(w, err, http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusOK, ingestResponse{
			Stored:  len(muts) - updated,
			Updated: updated,
			Graphs:  s.db.Len(),
			Epoch:   s.db.Epoch(),
			IDs:     ids,
		})
	default:
		writeError(w, http.StatusUnsupportedMediaType,
			fmt.Errorf("unsupported Content-Type %q (use application/json or text/plain)", ct))
	}
}
