package server

import (
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

// cacheHeader reports the cache outcome of a request: "hit", "miss", or
// "off" when the server runs without a cache.
const cacheHeader = "X-Gsim-Cache"

// traced reports whether the request asked for the per-stage trace echo
// (?debug=trace). Traced requests run the fine per-entry stage split,
// bypass the result cache (their body carries a stages block a cached
// copy must not serve to untraced callers — and tracing a cached hit
// would time nothing) and report the breakdown in the response.
func traced(r *http.Request) bool {
	return r.URL.Query().Get("debug") == "trace"
}

// cached wraps the render step of a cacheable endpoint. On a hit the
// stored body is served verbatim; on a miss render runs and its body is
// stored under the epoch the search actually snapshotted (render returns
// it), so a result computed while a mutation raced the request is stored
// under the post-mutation epoch — the response's epoch label, the cache
// version and the scanned snapshot always agree. With caching disabled
// the key is never even computed (keyFn is lazy). bypass skips the cache
// in both directions (the ?debug=trace path). The outcome lands in the
// response header and the request's reqInfo, which feeds the
// hit-vs-miss latency split (see instrument).
func (s *Server) cached(w http.ResponseWriter, r *http.Request, bypass bool, keyFn func() string, render func() ([]byte, uint64, int, error)) {
	ri := info(r)
	note := func(outcome string) {
		w.Header().Set(cacheHeader, outcome)
		if ri != nil && outcome != "bypass" {
			ri.cache = outcome
		}
	}
	var key string
	if s.cache.Enabled() && !bypass {
		key = keyFn()
		if body, ok := s.cache.Get(s.db.Epoch(), key); ok {
			note("hit")
			writeJSONBytes(w, http.StatusOK, body)
			return
		}
	}
	body, epoch, status, err := render()
	if err != nil {
		writeError(w, status, err)
		return
	}
	switch {
	case bypass:
		note("bypass")
	case s.cache.Enabled():
		s.cache.Put(epoch, key, body)
		note("miss")
	default:
		note("off")
	}
	writeJSONBytes(w, http.StatusOK, body)
}

// noteResult stashes a search outcome on the request's reqInfo for the
// slow-query log.
func noteResult(r *http.Request, stages *gsim.StageStats, scanned, matched int) {
	if ri := info(r); ri != nil {
		ri.stages = stages
		ri.scanned = scanned
		ri.matched = matched
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, bodyStatus(err, http.StatusBadRequest), err)
		return
	}
	opt, echo, err := s.searchOptions(req.wireOptions)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opt.Trace = traced(r)
	keyFn := func() string { return fingerprint("search", echo, []wireGraph{req.Graph}) }
	s.cached(w, r, opt.Trace, keyFn, func() ([]byte, uint64, int, error) {
		q, err := s.buildQuery(req.Graph)
		if err != nil {
			return nil, 0, http.StatusBadRequest, err
		}
		res, err := s.db.SearchContext(r.Context(), q, opt)
		if err != nil {
			return nil, 0, searchStatus(err), err
		}
		noteResult(r, &res.Stages, res.Scanned, len(res.Matches))
		body, err := json.Marshal(toResponse(res, echo))
		if err != nil {
			return nil, 0, http.StatusInternalServerError, err
		}
		return body, res.Epoch, http.StatusOK, nil
	})
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, bodyStatus(err, http.StatusBadRequest), err)
		return
	}
	opt, echo, err := s.topKOptions(req.wireOptions)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opt.Trace = traced(r)
	keyFn := func() string { return fingerprint("topk", echo, []wireGraph{req.Graph}) }
	s.cached(w, r, opt.Trace, keyFn, func() ([]byte, uint64, int, error) {
		q, err := s.buildQuery(req.Graph)
		if err != nil {
			return nil, 0, http.StatusBadRequest, err
		}
		res, err := s.db.SearchTopKContext(r.Context(), q, opt)
		if err != nil {
			return nil, 0, searchStatus(err), err
		}
		noteResult(r, &res.Stages, res.Scanned, len(res.Matches))
		body, err := json.Marshal(toResponse(res, echo))
		if err != nil {
			return nil, 0, http.StatusInternalServerError, err
		}
		return body, res.Epoch, http.StatusOK, nil
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, bodyStatus(err, http.StatusBadRequest), err)
		return
	}
	if len(req.Graphs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: batch holds no graphs", gsim.ErrBadOptions))
		return
	}
	if len(req.Graphs) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: batch holds %d graphs, limit %d", gsim.ErrBadOptions, len(req.Graphs), s.cfg.MaxBatch))
		return
	}
	opt, echo, err := s.searchOptions(req.wireOptions)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opt.Trace = traced(r)
	keyFn := func() string { return fingerprint("batch", echo, req.Graphs) }
	s.cached(w, r, opt.Trace, keyFn, func() ([]byte, uint64, int, error) {
		queries := make([]*gsim.Query, len(req.Graphs))
		for i, wg := range req.Graphs {
			q, err := s.buildQuery(wg)
			if err != nil {
				return nil, 0, http.StatusBadRequest, err
			}
			queries[i] = q
		}
		results, err := s.db.SearchBatch(r.Context(), queries, opt)
		if err != nil {
			return nil, 0, searchStatus(err), err
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
		noteResult(r, &stages, scanned, matched)
		resp := batchResponse{Epoch: results[0].Epoch, Results: make([]searchResponse, len(results))}
		for i, res := range results {
			resp.Results[i] = toResponse(res, echo)
		}
		body, err := json.Marshal(resp)
		if err != nil {
			return nil, 0, http.StatusInternalServerError, err
		}
		return body, resp.Epoch, http.StatusOK, nil
	})
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
	noteResult(r, &st.Stages, st.Scanned, matches)
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
// The deletion bumps the database epoch — every cached result is
// invalidated and the next search no longer sees the graph; its branch
// refcounts are released for dictionary compaction. Unknown or already
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
