package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"gsim"
	"gsim/internal/branch"
	"gsim/internal/core"
	"gsim/internal/db"
	"gsim/internal/engine"
	"gsim/internal/graph"
	"gsim/internal/index"
	"gsim/internal/method"
	"gsim/internal/qcache"
	"gsim/internal/server"
	"gsim/internal/shard"
	"gsim/internal/telemetry"
	"gsim/internal/wal"
)

const (
	ladderQueries = 16   // seed-fixed queries every rung runs
	storageGraphs = 4000 // graphs behind the segment, parse and checkpoint figures
	durableStores = 256  // single fsynced stores behind the WAL figures
	writeProbes   = 20   // store-then-search pairs behind gsim.search_after_write_ms
	pairReps      = 4    // library/handler pairs per ladder query behind server.overhead_us
)

// rungs of the in-process ladder, bottom up. Each runs the same
// unfiltered query over the same base with one scan worker — the kernel
// and the scorer are plain loops, the rungs above take Workers: 1 — so
// every rung does the work of the one below plus its own, and a rung's
// self time is its duration minus that of the rung below.
var rungs = [...]string{"branch.gbd", "method.score", "engine.scan", "gsim.search", "server.handler", "loopback.search"}

// sink keeps measured calls from being optimised away.
var sink int

// timed runs fn and returns when it started and how long it took.
func timed(fn func()) (time.Time, time.Duration) {
	t := time.Now()
	fn()
	return t, time.Since(t)
}

// mallocs reports the heap allocations fn performs.
func mallocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

func perItem(d time.Duration, n int, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(max(n, 1))
}

// methodOptions are the library's defaults at the paper configuration.
func methodOptions() method.Options {
	return method.Options{
		Tau: queryTau, Gamma: queryGamma, V1Sample: 50, V2Weight: 0.5,
		BaselineMaxVertices: 20000, ExactBudget: 2_000_000, HybridVerifyMax: 12,
	}
}

// store stores collection member idx in d.
func (c *corpus) store(d *gsim.Database, idx int) (int, error) {
	b, err := c.build(d.NewGraph, idx)
	if err != nil {
		return 0, err
	}
	return b.Store()
}

// ladder measures every package from the harness, on the run's corpus:
// calls into exported functions, timed here, with one span per rung per
// query. cl talks to a read-only gsimd holding the base; ref is the
// identically built in-process database (mutated here, so the answer
// checker runs first).
func (r *runner) ladder(cl *client, ref *gsim.Database) error {
	c := r.corpus
	if err := r.scanLadder(cl, ref); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	if err := r.writeLadder(ref); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	if err := r.storageLadder(); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}

	// telemetry, qcache: the per-request bookkeeping primitives.
	var h telemetry.Histogram
	const loops = 1_000_000
	_, d := timed(func() {
		for i := 0; i < loops; i++ {
			h.RecordNS(int64(i))
		}
	})
	r.set("telemetry.record_ns", perItem(d, loops, time.Nanosecond), "ns")
	qc := qcache.New(1024)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = "key-" + strconv.Itoa(i)
		qc.Put(1, keys[i], c.queryJSON[i%len(c.queryJSON)])
	}
	_, d = timed(func() {
		for i := 0; i < loops/10; i++ {
			if v, ok := qc.Get(1, keys[i%len(keys)]); ok {
				sink += len(v)
			}
		}
	})
	r.set("qcache.get_ns", perItem(d, loops/10, time.Nanosecond), "ns")
	return nil
}

// scanLadder runs the read path bottom up on the full base.
func (r *runner) scanLadder(cl *client, ref *gsim.Database) error {
	c := r.corpus
	ctx := context.Background()
	queries := c.sample(ladderQueries)

	// shard: build the base the way ingest does, one Add per graph.
	store := shard.NewWithDictionaries("ladder", 0, c.ds.Col.Dict, db.NewBranchDict())
	var addErr error
	_, d := timed(func() {
		for _, idx := range c.base {
			if _, err := store.Add(c.ds.Col.Graph(idx)); err != nil {
				addErr = err
				return
			}
		}
	})
	if addErr != nil {
		return fmt.Errorf("shard.Add: %w", addErr)
	}
	r.set("shard.add_us_per_graph", perItem(d, len(c.base), time.Microsecond), "us")
	store.Views(true) // the first cut activates the per-shard prefilter columns
	var views []shard.View
	_, d = timed(func() { views, _ = store.Views(true) })
	r.set("shard.views_us", us(d), "us")

	// index: the projection rebuild every write forces on the next search.
	pviews := make([]index.View, len(views))
	var entries []*db.Entry
	for i, v := range views {
		pviews[i] = v.Pre
		entries = append(entries, v.Entries...)
	}
	n := len(entries)
	var flat *index.Flat
	var flatten []time.Duration
	for i := 0; i < 5; i++ {
		_, d = timed(func() { flat = index.FlattenViews(pviews) })
		flatten = append(flatten, d)
	}
	r.set("index.flatten_ms", ms(medianDur(flatten)), "ms")
	mem := store.PrefilterMem()
	r.set("index.bytes_per_graph", float64(mem.SigBytes+mem.MetaBytes+mem.ArenaBytes)/float64(max(mem.Entries, 1)), "B")

	// core: the offline stage.
	var prior *core.GBDPrior
	var err error
	_, d = timed(func() { prior, err = core.FitGBDPrior(store.SamplePairGBDs(priorPairs, 0), 3) })
	if err != nil {
		return err
	}
	r.set("core.priors_fit_ms", ms(d), "ms")
	st := store.Stats()
	ws := core.NewWorkspace(core.Params{LV: st.LV, LE: st.LE, TauMax: priorsTau})
	searcher := core.NewSearcher(ws, prior)
	sizes := store.DistinctSizes()
	var table *core.PosteriorTable
	_, d = timed(func() { table = core.NewPosteriorTable(searcher, queryTau, sizes) })
	r.set("core.table_build_ms", ms(d), "ms")
	ws.PosteriorTable(searcher, queryTau, sizes) // what -warm does: Prepare below is the steady state

	mdb := &method.DB{
		ActiveN:        n,
		Ordered:        func() []*db.Entry { return entries },
		Sizes:          func() []int { return sizes },
		BranchUniverse: store.BranchDict().Universe,
		WS:             ws, GBDPrior: prior, TauMax: priorsTau,
	}
	info, _ := method.Lookup(method.GBDA)
	handler := server.New(server.Config{DB: ref}).Handler()
	serve := func(body []byte) (*httptest.ResponseRecorder, time.Time, time.Duration) {
		req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		at, d := timed(func() { handler.ServeHTTP(rec, req) })
		return rec, at, d
	}
	prefilterOpt := gsim.SearchOptions{Tau: queryTau, Gamma: queryGamma, Prefilter: true}
	scanOpt := gsim.SearchOptions{Tau: queryTau, Gamma: queryGamma}
	serialOpt := gsim.SearchOptions{Tau: queryTau, Gamma: queryGamma, Workers: 1}

	var (
		posterior, prune, prepare                                              time.Duration
		searchScan, searchPre, topk, handlerPre, overhead, prepS, cutS, mergeS []time.Duration
		rungDur                                                                [len(rungs)][]time.Duration
		pruned                                                                 int
		mqs                                                                    []*method.Query
		libQueries                                                             []*gsim.Query
		phis                                                                   = make([]int, n)
	)
	for _, q := range queries {
		qg := c.ds.Col.Graph(c.queries[q])
		qids := store.BranchDict().ResolveMultiset(branch.MultisetOf(qg))
		mq := &method.Query{G: qg, Branches: qids}
		mqs = append(mqs, mq)
		lq, err := c.libraryQuery(ref, q)
		if err != nil {
			return err
		}
		libQueries = append(libQueries, lq)
		var rungAt [len(rungs)]time.Time
		var rungD [len(rungs)]time.Duration

		// Rung 0, branch: the GBD kernel against every entry.
		rungAt[0], rungD[0] = timed(func() {
			for i, e := range entries {
				phis[i] = branch.GBDIDs(qids, e.Branches)
			}
		})
		// core: one posterior lookup per pair, from the GBDs just computed.
		_, d = timed(func() {
			acc := 0.0
			for i, e := range entries {
				acc += table.Posterior(max(qg.NumVertices(), e.G.NumVertices()), phis[i])
			}
			sink += int(acc)
		})
		posterior += d
		// index: the columnar prefilter's verdict on every entry.
		qp := index.PrepareQuery(qg)
		_, d = timed(func() {
			for pos, e := range entries {
				if flat.Prunable(&qp, qids, e, pos, queryTau) {
					pruned++
				}
			}
		})
		prune += d

		// Rung 1, method: prepare the scorer, then score every entry on one core.
		scorer := info.New()
		_, d = timed(func() { err = scorer.Prepare(mdb, methodOptions()) })
		if err != nil {
			return fmt.Errorf("scorer.Prepare: %w", err)
		}
		prepare += d
		rungAt[1], rungD[1] = timed(func() {
			for _, e := range entries {
				if keep, _, _ := scorer.Score(mq, e); keep {
					sink++
				}
			}
		})
		// Rung 2, engine: the same scoring through the scan engine.
		rungAt[2], rungD[2] = timed(func() {
			_, err = engine.Scan(ctx, n, engine.Options{Workers: 1},
				func(pos int) (float64, bool, error) {
					keep, s, err := scorer.Score(mq, entries[pos])
					return s, keep, err
				},
				func(int, float64) bool { return true })
		})
		if err != nil {
			return fmt.Errorf("engine.Scan: %w", err)
		}
		// Rung 3, gsim: Database.Search — then the library entry points as
		// served, with the default GOMAXPROCS workers.
		rungAt[3], rungD[3] = timed(func() { _, err = ref.Search(lq, serialOpt) })
		if err != nil {
			return fmt.Errorf("Search: %w", err)
		}
		_, d = timed(func() { _, err = ref.Search(lq, scanOpt) })
		if err != nil {
			return fmt.Errorf("Search: %w", err)
		}
		searchScan = append(searchScan, d)
		// The prefiltered search, in the library and through the handler:
		// the handler's cost over the call it wraps is the difference of
		// two figures of a few milliseconds, so the pair runs pairReps
		// times back to back and the median difference is reported.
		prefilterBody := searchBody(c.queryJSON[q], "", true)
		for rep := 0; rep < pairReps; rep++ {
			var res *gsim.Result
			_, d = timed(func() { res, err = ref.Search(lq, prefilterOpt) })
			if err != nil {
				return fmt.Errorf("Search: %w", err)
			}
			prepS = append(prepS, time.Duration(res.Stages.PrepareNS))
			cutS = append(cutS, time.Duration(res.Stages.CutNS))
			mergeS = append(mergeS, time.Duration(res.Stages.MergeNS))
			searchPre = append(searchPre, d)
			rec, _, dh := serve(prefilterBody)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body)
			}
			handlerPre = append(handlerPre, dh)
			overhead = append(overhead, dh-d)
		}
		_, d = timed(func() { _, err = ref.SearchTopK(lq, gsim.TopKOptions{K: 10, Tau: queryTau}) })
		if err != nil {
			return fmt.Errorf("SearchTopK: %w", err)
		}
		topk = append(topk, d)
		// Rung 4, server: the handler without a socket.
		body := searchBody(c.queryJSON[q], "", false)
		body = append(body[:len(body)-1], `,"workers":1}`...)
		var rec *httptest.ResponseRecorder
		rec, rungAt[4], rungD[4] = serve(body)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body)
		}
		// Rung 5, loopback: the same request over TCP to the live server.
		r.attempt(1)
		rep := cl.do(http.MethodPost, "/v1/search", body, "")
		if !rep.ok() {
			r.fail("ladder loopback: %s", rep.fail())
		}
		rungAt[5], rungD[5] = rep.start, rep.dur

		// One span per rung; the rung above is its parent. The rungs ran
		// one after another, so their spans are aligned at one start:
		// nested that way, a rung's self time is its duration minus the
		// duration of the rung below.
		base := len(r.spans)
		for k := range rungs {
			parent := 0
			if k < len(rungs)-1 {
				parent = base + k + 2
			}
			at := rungAt[0].Sub(r.origin).Nanoseconds()
			r.spans = append(r.spans, span{
				ID: base + k + 1, Parent: parent, Name: "ladder." + rungs[k],
				StartNS: at, EndNS: at + rungD[k].Nanoseconds(), RequestID: "ladder-q" + strconv.Itoa(q),
			})
			rungDur[k] = append(rungDur[k], rungD[k])
		}
	}
	pairs := n * len(queries)
	var gbd, score time.Duration
	for i := range queries {
		gbd += rungDur[0][i]
		score += rungDur[1][i]
	}
	r.set("branch.gbd_ns_per_pair", perItem(gbd, pairs, time.Nanosecond), "ns")
	r.set("core.posterior_ns_per_lookup", perItem(posterior, pairs, time.Nanosecond), "ns")
	r.set("index.prune_ns_per_entry", perItem(prune, pairs, time.Nanosecond), "ns")
	r.set("index.prune_ratio", float64(pruned)/float64(max(pairs, 1)), "ratio")
	r.set("method.prepare_us", perItem(prepare, len(queries), time.Microsecond), "us")
	r.set("method.score_ns_per_entry", perItem(score, pairs, time.Nanosecond), "ns")
	r.set("engine.scan_score_ms", ms(medianDur(rungDur[2])), "ms")
	r.set("gsim.search_scan_ms", ms(medianDur(searchScan)), "ms")
	r.set("gsim.search_prefilter_ms", ms(medianDur(searchPre)), "ms")
	r.set("gsim.topk_ms", ms(medianDur(topk)), "ms")
	r.set("gsim.prepare_us", us(medianDur(prepS)), "us")
	r.set("gsim.cut_us", us(medianDur(cutS)), "us")
	r.set("gsim.merge_us", us(medianDur(mergeS)), "us")
	r.set("server.handler_search_ms", ms(medianDur(handlerPre)), "ms")
	r.set("server.overhead_us", us(medianDur(overhead)), "us")
	r.set("loopback.search_scan_ms", ms(medianDur(rungDur[5])), "ms")
	r.counts["ladder_queries"] = len(queries)

	// method, entry-major: one entry against a batch of 8 queries.
	batch := mqs[:min(batchQueries, len(mqs))]
	bs, _ := method.AsBatch(info.New())
	if err := bs.Prepare(mdb, methodOptions()); err != nil {
		return err
	}
	if err := bs.PrepareBatch(batch); err != nil {
		return err
	}
	out := make([]method.Verdict, len(batch))
	_, d = timed(func() {
		for _, e := range entries {
			clear(out)
			if err = bs.ScoreEntry(e, out); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("ScoreEntry: %w", err)
	}
	r.set("method.score_entry_ns_per_pair", perItem(d, n*len(batch), time.Nanosecond), "ns")

	// engine: what the worker pool costs per entry when the work is free.
	_, d = timed(func() {
		engine.Scan(ctx, n, engine.Options{},
			func(int) (struct{}, bool, error) { return struct{}{}, false, nil },
			func(int, struct{}) bool { return true })
	})
	r.set("engine.scan_ns_per_entry_empty", perItem(d, n, time.Nanosecond), "ns")
	_, d = timed(func() {
		engine.ScanBatch(ctx, n, len(batch), engine.Options{},
			func(int, []struct{}) error { return nil },
			func(int, []struct{}) bool { return true })
	})
	r.set("engine.scanbatch_ns_per_pair_empty", perItem(d, n*len(batch), time.Nanosecond), "ns")

	// gsim: a batch of 8 through SearchBatch, and allocations per search.
	lb := libQueries[:min(batchQueries, len(libQueries))]
	_, d = timed(func() { _, err = ref.SearchBatch(ctx, lb, prefilterOpt) })
	if err != nil {
		return fmt.Errorf("SearchBatch: %w", err)
	}
	r.set("gsim.batch8_ms", ms(d), "ms")
	a := mallocs(func() {
		for _, lq := range libQueries {
			ref.Search(lq, prefilterOpt)
		}
	})
	r.set("gsim.allocs_per_search", float64(a)/float64(len(libQueries)), "count")
	a = mallocs(func() {
		for _, q := range queries {
			serve(searchBody(c.queryJSON[q], "", true))
		}
	})
	r.set("server.allocs_per_request", float64(a)/float64(len(queries)), "count")

	// shard: deletes, last because they change the store.
	_, d = timed(func() {
		for i := 0; i < 200 && i < n; i++ {
			store.Delete(entries[i].ID)
		}
	})
	r.set("shard.delete_us", perItem(d, min(200, n), time.Microsecond), "us")
	return nil
}

// writeLadder measures what a write costs the read path in the library
// and what ingest costs in the handler.
func (r *runner) writeLadder(ref *gsim.Database) error {
	c := r.corpus
	opt := gsim.SearchOptions{Tau: queryTau, Gamma: queryGamma, Prefilter: true}
	var after []time.Duration
	for i := 0; i < writeProbes && i < len(c.pool); i++ {
		if _, err := c.store(ref, c.pool[i]); err != nil {
			return fmt.Errorf("Store: %w", err)
		}
		lq, err := c.libraryQuery(ref, c.order[i])
		if err != nil {
			return err
		}
		_, d := timed(func() { _, err = ref.Search(lq, opt) })
		if err != nil {
			return fmt.Errorf("Search: %w", err)
		}
		after = append(after, d)
	}
	r.set("gsim.search_after_write_ms", ms(medianDur(after)), "ms")

	scratch := gsim.New(gsim.WithName("ingest"))
	handler := server.New(server.Config{DB: scratch}).Handler()
	var total time.Duration
	graphs := 0
	for lo := 0; lo+ingestBatch <= len(c.pool) && graphs < 512; lo += ingestBatch {
		batch := make([]wireGraph, ingestBatch)
		for i := range batch {
			batch[i] = c.wire(c.pool[lo+i])
		}
		body, err := ingestBody(batch)
		if err != nil {
			return err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/graphs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		_, d := timed(func() { handler.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			return fmt.Errorf("ingest handler answered %d: %s", rec.Code, rec.Body)
		}
		total += d
		graphs += ingestBatch
	}
	r.set("server.ingest_us_per_graph", perItem(total, graphs, time.Microsecond), "us")
	return nil
}

// storageLadder measures the durable write and recovery path: the
// library with its WAL (fsync always), the WAL alone, and the segment
// codec.
func (r *runner) storageLadder() error {
	c := r.corpus
	dict := c.ds.Col.Dict
	members := c.base[:min(storageGraphs, len(c.base))]
	dir := filepath.Join(r.dir, "ladder-data")

	// gsim: single fsynced stores, a checkpoint over a bulk load, reopen.
	d, err := gsim.Open(dir)
	if err != nil {
		return err
	}
	nStores := min(durableStores, len(members))
	var storeErr error
	_, dur := timed(func() {
		for _, idx := range members[:nStores] {
			if _, err := c.store(d, idx); err != nil {
				storeErr = err
				return
			}
		}
	})
	if storeErr != nil {
		d.Close()
		return fmt.Errorf("durable Store: %w", storeErr)
	}
	r.set("gsim.store_us_per_graph", perItem(dur, nStores, time.Microsecond), "us")
	r.set("wal.fsyncs_per_write", float64(d.WALTelemetry().Fsync.Count())/float64(nStores), "ratio")
	r.set("wal.bytes_per_graph", float64(d.PersistStats().WALBytes)/float64(nStores), "B")
	var builders []*gsim.GraphBuilder
	for _, idx := range members[nStores:] {
		b, err := c.build(d.NewGraph, idx)
		if err != nil {
			d.Close()
			return err
		}
		builders = append(builders, b)
	}
	if len(builders) > 0 {
		if _, err := d.StoreAll(builders); err != nil {
			d.Close()
			return fmt.Errorf("StoreAll: %w", err)
		}
	}
	_, dur = timed(func() { _, err = d.Checkpoint() })
	if err != nil {
		d.Close()
		return fmt.Errorf("Checkpoint: %w", err)
	}
	r.set("gsim.checkpoint_ms", ms(dur), "ms")
	if err := d.Close(); err != nil {
		return err
	}
	_, dur = timed(func() { d, err = gsim.Open(dir) })
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	r.set("gsim.open_ms", ms(dur), "ms")
	if got := d.Len(); got != len(members) {
		r.fail("ladder: reopened database holds %d graphs, stored %d", got, len(members))
	}
	if err := d.Close(); err != nil {
		return err
	}

	// wal: append + commit of one record under fsync always, then replay.
	path := filepath.Join(r.dir, "ladder.wal")
	w, err := wal.Open(path, wal.Options{})
	if err != nil {
		return err
	}
	payloads := make([][]byte, nStores)
	for i, idx := range members[:nStores] {
		payloads[i] = wal.AppendRecord(nil, wal.OpStore, uint64(i), c.ds.Col.Graph(idx), dict)
	}
	_, dur = timed(func() {
		for _, p := range payloads {
			var seq uint64
			if seq, err = w.Append(p); err != nil {
				return
			}
			if err = w.Commit(seq); err != nil {
				return
			}
		}
	})
	if err != nil {
		w.Close()
		return fmt.Errorf("wal append: %w", err)
	}
	r.set("wal.append_commit_us", perItem(dur, nStores, time.Microsecond), "us")
	if err := w.Close(); err != nil {
		return err
	}
	records := 0
	_, dur = timed(func() {
		_, err = wal.Replay(path, func(payload []byte) error {
			if _, err := wal.DecodeRecord(payload, dict); err != nil {
				return err
			}
			records++
			return nil
		})
	})
	if err != nil || records != nStores {
		return fmt.Errorf("wal replay: %d of %d records (%v)", records, nStores, err)
	}
	r.set("wal.replay_us_per_record", perItem(dur, records, time.Microsecond), "us")

	// db: the segment codec and the branch interning recovery pays.
	col := db.New("segment")
	col.Dict = dict
	for _, idx := range members {
		col.Add(c.ds.Col.Graph(idx))
	}
	var seg bytes.Buffer
	_, dur = timed(func() { err = db.WriteSegment(&seg, col.Entries()) })
	if err != nil {
		return fmt.Errorf("WriteSegment: %w", err)
	}
	r.set("db.segment_write_us_per_graph", perItem(dur, len(members), time.Microsecond), "us")
	r.set("db.segment_bytes_per_graph", float64(seg.Len())/float64(len(members)), "B")
	var ids []uint64
	var gs []*graph.Graph
	var readDur, buildDur time.Duration
	a := mallocs(func() {
		_, readDur = timed(func() { ids, gs, err = db.ReadSegment(bytes.NewReader(seg.Bytes()), dict.Len()) })
		if err == nil {
			_, buildDur = timed(func() { sink += len(db.BuildEntries(db.NewBranchDict(), ids, gs)) })
		}
	})
	if err != nil {
		return fmt.Errorf("ReadSegment: %w", err)
	}
	r.set("db.segment_read_us_per_graph", perItem(readDur, len(members), time.Microsecond), "us")
	r.set("db.build_entries_us_per_graph", perItem(buildDur, len(members), time.Microsecond), "us")
	r.set("db.allocs_per_recovered_graph", float64(a)/float64(len(members)), "count")

	// graph: parsing the .gsim text every boot of the base pays.
	var text bytes.Buffer
	for _, idx := range members {
		if err := graph.Write(&text, c.ds.Col.Graph(idx), dict); err != nil {
			return err
		}
	}
	_, dur = timed(func() { gs, err = graph.ReadAll(&text, graph.NewLabels()) })
	if err != nil || len(gs) != len(members) {
		return fmt.Errorf("graph.ReadAll: %d of %d graphs (%v)", len(gs), len(members), err)
	}
	r.set("graph.parse_us_per_graph", perItem(dur, len(members), time.Microsecond), "us")
	return nil
}
