package gsim

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"gsim/internal/engine"
	"gsim/internal/index"
	"gsim/internal/method"
)

// BatchStrategy selects how SearchBatch executes a multi-query workload.
type BatchStrategy int

const (
	// BatchAuto (the zero value) picks entry-major whenever the scorer
	// natively shares per-entry work across queries and the search is not
	// CollectAll — a CollectAll batch holds O(queries × database) matches
	// under entry-major, where query-major streams one scored scan at a
	// time. Query-major otherwise.
	BatchAuto BatchStrategy = iota
	// BatchQueryMajor pipelines queries one at a time through a hot
	// engine: the scorer is prepared once, then each query runs a full
	// parallel scan. Results stream to the caller per query, so peak
	// memory with SearchBatchFunc is one query's result.
	BatchQueryMajor
	// BatchEntryMajor scans database entries once per batch: workers
	// claim entries, compute each entry's shared representation once
	// (branch decomposition, seriation order), and score it against every
	// query before moving on. Methods without native batch support run
	// through a pairwise adapter with identical results.
	BatchEntryMajor
)

// String renders the strategy as accepted by ParseBatchStrategy.
func (s BatchStrategy) String() string {
	switch s {
	case BatchQueryMajor:
		return "query"
	case BatchEntryMajor:
		return "entry"
	default:
		return "auto"
	}
}

// ParseBatchStrategy resolves a case-insensitive strategy name:
// "auto", "query" (or "query-major"), "entry" (or "entry-major").
func ParseBatchStrategy(s string) (BatchStrategy, error) {
	switch strings.ToLower(s) {
	case "auto", "":
		return BatchAuto, nil
	case "query", "query-major", "querymajor":
		return BatchQueryMajor, nil
	case "entry", "entry-major", "entrymajor":
		return BatchEntryMajor, nil
	}
	return 0, fmt.Errorf("gsim: unknown batch strategy %q (want auto, query or entry)", s)
}

// SearchBatch runs one configured search over a whole query workload,
// returning one Result per query in input order. Preparation is amortised
// across the batch: the scorer is validated and prepared once (for GBDA-V1
// that includes the α-graph size sample), the active subset is snapshotted
// once, and with Prefilter the admissible index is built/synced once —
// where a Search loop would redo all of it per query.
//
// Two execution strategies exist, selected by SearchOptions.BatchStrategy
// (BatchAuto decides from the scorer and options; see the constants). The
// entry-major strategy additionally shares per-entry work: every database
// entry is claimed once per batch and scored against all queries while its
// representation is hot, instead of being revisited once per query. Both
// strategies return identical Results, except that under entry-major every
// Result reports the whole batch scan as its Elapsed — the per-query cost
// is not separable from a shared scan.
//
// SearchBatch retains every Result until the batch completes — with
// CollectAll that is O(queries × database) matches. Workloads that can
// consume results one at a time should use SearchBatchFunc with the
// query-major strategy and keep peak memory at one query's result.
//
// Cancellation applies to the whole batch: when ctx expires mid-batch the
// partial results are discarded and the context error is returned.
func (d *Database) SearchBatch(ctx context.Context, queries []*Query, opt SearchOptions) ([]*Result, error) {
	out := make([]*Result, len(queries))
	err := d.SearchBatchFunc(ctx, queries, opt, func(i int, res *Result) error {
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SearchBatchFunc is SearchBatch with a per-query callback instead of a
// materialised result slice: fn receives each query's index and Result as
// soon as it is available, and only what fn retains stays live. A fn error
// aborts the rest of the batch and is returned.
//
// Under the query-major strategy fn fires as each query's scan completes,
// so at most one Result is in flight. Under entry-major all queries share
// one scan, so every Result materialises before fn sees the first one —
// the callback's memory benefit only exists query-major.
func (d *Database) SearchBatchFunc(ctx context.Context, queries []*Query, opt SearchOptions, fn func(i int, res *Result) error) error {
	ps, err := d.prepare(opt)
	if err != nil {
		return err
	}
	if bs, ok := ps.batchScorer(); ok {
		return ps.collectBatch(ctx, queries, bs, fn)
	}
	for i, q := range queries {
		res, err := ps.collect(ctx, q)
		if err != nil {
			return err
		}
		if err := fn(i, res); err != nil {
			return err
		}
	}
	return nil
}

// batchScorer resolves the batch execution strategy: it returns the
// entry-major scorer and true when the batch should run entry-major, or
// false for the query-major pipeline.
func (ps *preparedSearch) batchScorer() (method.BatchScorer, bool) {
	switch ps.opt.BatchStrategy {
	case BatchQueryMajor:
		return nil, false
	case BatchEntryMajor:
		bs, _ := method.AsBatch(ps.scorer)
		return bs, true
	default: // BatchAuto
		if ps.opt.CollectAll {
			return nil, false
		}
		if bs, native := method.AsBatch(ps.scorer); native {
			return bs, true
		}
		return nil, false
	}
}

// streamBatch runs one entry-major scan over the flat cut: bs is
// prepared with the whole workload, then the verdict vector of every
// entry some query keeps is fed to emit (serialised, position-tagged,
// unordered; the vector is reused, so emit must copy what it retains).
// With Prefilter, each query's summary is computed once and pruned
// (query, entry) pairs carry Skip verdicts without touching the scorer —
// exactly the pairs the query-major path would prune; an entry every
// query prunes is never loaded. It returns the number of entries
// examined.
func (ps *preparedSearch) streamBatch(ctx context.Context, queries []*Query, bs method.BatchScorer, tr *traceAcc, emit func(pos int, verdicts []method.Verdict) bool) (int, error) {
	// Each query's key multiset resolves to interned IDs once per batch
	// (see the stream comment on why at-or-after prepare is safe).
	mqs := make([]*method.Query, len(queries))
	for k, q := range queries {
		mqs[k] = &method.Query{G: q.g, Branches: ps.bdict.ResolveMultiset(q.branches)}
	}
	if err := bs.PrepareBatch(mqs); err != nil {
		return 0, err
	}
	var qps []index.QueryPre
	if ps.pre != nil {
		qps = make([]index.QueryPre, len(queries))
		for k, q := range queries {
			qps[k] = index.PrepareQuery(q.g)
		}
	}
	bq := &batchScan{ps: ps, tr: tr, bs: bs, mqs: mqs, qps: qps}
	opt := engine.Options{Workers: ps.opt.Workers, Observe: func(d time.Duration) { tr.scanNS = int64(d) }}
	return engine.ScanRanges(ctx, len(ps.entries), opt, bq.newRunner, emit)
}

// batchScan is what the workers of one entry-major scan share, read-only
// while they run.
type batchScan struct {
	ps  *preparedSearch
	tr  *traceAcc
	bs  method.BatchScorer
	mqs []*method.Query
	qps []index.QueryPre // prefiltered scans only
}

// batchRange is one worker's side of an entry-major scan: it owns the
// verdict vector and the tally of skipped pairs. The tally is published
// once per range — the scan-wide and per-shard pruned counters are lines
// every worker writes, and with a prefilter nearly every entry has a
// skipped pair — and attributes by position, so an entry every query
// prunes is never loaded.
type batchRange struct {
	*batchScan
	out   []method.Verdict
	tally pruneTally // prefiltered scans only
}

func (bq *batchScan) newRunner() engine.Runner[[]method.Verdict] {
	w := &batchRange{batchScan: bq, out: make([]method.Verdict, len(bq.mqs))}
	if bq.ps.pre != nil {
		w.tally = bq.ps.newTally()
	}
	return w.run
}

func (w *batchRange) run(s *engine.Scanner[[]method.Verdict], lo, hi int) (int, error) {
	defer w.tally.publish(w.tr) // nothing to publish without a prefilter
	for pos := lo; pos < hi; pos++ {
		if s.Stopped() {
			return pos - lo, nil
		}
		clear(w.out)
		if w.ps.pre != nil && w.skip(pos) == len(w.out) {
			continue
		}
		if err := w.bs.ScoreEntry(w.ps.entries[pos], w.out); err != nil {
			return pos - lo, err
		}
		for _, v := range w.out {
			if v.Keep && !v.Skip {
				if !s.Emit(pos, w.out) {
					return pos - lo + 1, nil
				}
				break
			}
		}
	}
	return hi - lo, nil
}

// skip marks the queries whose prefilter prunes the entry at pos and
// returns how many it marked. Prunable reads the entry it is handed only
// when a signature cannot decide.
func (w *batchRange) skip(pos int) int {
	ps, skipped := w.ps, 0
	for k := range w.out {
		if ps.pre.Prunable(&w.qps[k], w.mqs[k].Branches, ps.entries[pos], pos, ps.opt.Tau) {
			w.out[k].Skip = true
			skipped++
		}
	}
	if skipped > 0 {
		w.tally.add(pos, skipped)
	}
	return skipped
}

// collectBatch gathers an entry-major scan into per-query Results
// (matches in deterministic output order, as collect produces) and hands
// them to fn in query order.
func (ps *preparedSearch) collectBatch(ctx context.Context, queries []*Query, bs method.BatchScorer, fn func(i int, res *Result) error) error {
	start := time.Now()
	type hit struct {
		key int
		m   Match
	}
	hits := make([][]hit, len(queries))
	tr := &traceAcc{deep: ps.opt.Trace}
	scanned, err := ps.streamBatch(ctx, queries, bs, tr, func(pos int, verdicts []method.Verdict) bool {
		id, name := int(ps.ids[pos]), ps.entries[pos].G.Name
		key := ps.key(pos)
		for k, v := range verdicts {
			if v.Skip || !v.Keep {
				continue
			}
			hits[k] = append(hits[k], hit{key, Match{Index: id, Name: name, Score: v.Score}})
		}
		return true
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	mergeStart := time.Now()
	results := make([]*Result, len(queries))
	matched := 0
	for k := range queries {
		qh := hits[k]
		sort.Slice(qh, func(a, b int) bool { return qh[a].key < qh[b].key })
		matches := make([]Match, len(qh))
		for i, h := range qh {
			matches[i] = h.m
		}
		matched += len(matches)
		results[k] = &Result{
			Method:  ps.opt.Method,
			Matches: matches,
			Scanned: scanned,
			Elapsed: elapsed,
			Epoch:   ps.epoch,
		}
	}
	// The shared scan and preparation are reported identically on every
	// Result — per-query spans are not separable from an entry-major
	// batch (mirroring the Elapsed contract above).
	stages := ps.record(tr, scanned, len(queries), matched, int64(time.Since(mergeStart)))
	for k, res := range results {
		res.Stages = stages
		if err := fn(k, res); err != nil {
			return err
		}
	}
	return nil
}
