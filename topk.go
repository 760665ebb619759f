package gsim

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"gsim/internal/method"
)

// TopKOptions parameterises SearchTopK.
type TopKOptions struct {
	// Method must be a scoring method: the GBDA family (posterior,
	// higher is more similar) or a baseline estimator (distance, lower
	// is more similar). Exact and Hybrid are not supported — their
	// scores are only resolved up to the threshold, so they cannot rank.
	Method Method
	// K is the number of results (default 10).
	K int
	// Tau dimensions the GBDA posterior (default: the priors' ceiling).
	Tau int
	// Workers bounds scan parallelism.
	Workers int
	// V1Sample / V2Weight configure the GBDA variants as in Search.
	V1Sample int
	V2Weight float64
	// BaselineMaxVertices guards the quadratic baselines as in Search.
	BaselineMaxVertices int
	// Trace enables the fine per-entry stage split as in
	// SearchOptions.Trace.
	Trace bool
}

// SearchTopK returns the K graphs most similar to q: by descending GBDA
// posterior for the GBDA family, by ascending estimated distance for the
// baseline estimators. It is the natural ranking companion to the paper's
// threshold query and consumes the same streaming scan, holding at most K
// matches in a bounded heap instead of materialising the scored database.
//
// The ranking is deterministic across worker counts: equal scores order by
// ascending collection index, both inside the result and at the K-th
// boundary.
func (d *Database) SearchTopK(q *Query, opt TopKOptions) (*Result, error) {
	return d.SearchTopKContext(context.Background(), q, opt)
}

// SearchTopKContext is SearchTopK with cancellation.
func (d *Database) SearchTopKContext(ctx context.Context, q *Query, opt TopKOptions) (*Result, error) {
	ps, info, err := d.prepareTopK(&opt)
	if err != nil {
		return nil, err
	}
	return ps.topK(ctx, q, opt.K, info.Ascending)
}

// SearchTopKBatch ranks a whole query workload, returning the K most
// similar graphs per query in input order: one preparation for the batch,
// then one ranked scan per query through its own bounded K-heap, exactly
// as SearchTopK runs it.
func (d *Database) SearchTopKBatch(ctx context.Context, queries []*Query, opt TopKOptions) ([]*Result, error) {
	ps, info, err := d.prepareTopK(&opt)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(queries))
	for i, q := range queries {
		if out[i], err = ps.topK(ctx, q, opt.K, info.Ascending); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// prepareTopK validates a ranking search and readies its scorer, applying
// the TopK defaults to opt in place.
func (d *Database) prepareTopK(opt *TopKOptions) (*preparedSearch, method.Info, error) {
	if opt.K <= 0 {
		opt.K = 10
	}
	if opt.Tau <= 0 {
		opt.Tau = d.TauMax()
		if opt.Tau <= 0 {
			opt.Tau = 10
		}
	}
	info, ok := method.Lookup(method.ID(opt.Method))
	if !ok || !info.Rankable() {
		return nil, info, fmt.Errorf("%w: SearchTopK does not support the %v method", ErrBadOptions, opt.Method)
	}
	ps, err := d.prepare(SearchOptions{
		Method:              opt.Method,
		Tau:                 opt.Tau,
		Workers:             opt.Workers,
		V1Sample:            opt.V1Sample,
		V2Weight:            opt.V2Weight,
		BaselineMaxVertices: opt.BaselineMaxVertices,
		CollectAll:          true,
		Trace:               opt.Trace,
	})
	if err != nil {
		return nil, info, err
	}
	return ps, info, nil
}

// topK runs one ranked scan through a bounded K-heap.
func (ps *preparedSearch) topK(ctx context.Context, q *Query, k int, ascending bool) (*Result, error) {
	start := time.Now()
	h := &topKHeap{k: k, ascending: ascending}
	tr := &traceAcc{deep: ps.opt.Trace}
	scanned, err := ps.stream(ctx, q, tr, h.admits, func(_ int, m Match) bool {
		h.offer(m)
		return true
	})
	if err != nil {
		return nil, err
	}
	mergeStart := time.Now()
	matches := h.ranked()
	stages := ps.record(tr, scanned, len(matches), int64(time.Since(mergeStart)))
	return &Result{
		Method:  ps.opt.Method,
		Matches: matches,
		Scanned: scanned,
		Elapsed: time.Since(start),
		Epoch:   ps.epoch,
		Stages:  stages,
	}, nil
}

// topKHeap keeps the K best matches seen so far, worst at the root, under
// the total order (score, collection index): for ascending scorers lower
// scores rank first, for descending scorers higher scores rank first, and
// equal scores always rank by ascending index. The total order is what
// makes the result independent of the arrival order — and hence of the
// worker count.
type topKHeap struct {
	k         int
	ascending bool
	items     []Match

	// kth publishes the K-th match (the heap root) to the scan workers
	// once the heap is full. It only ever improves, so an entry a stale
	// value refuses could not have entered the current heap either.
	kth atomic.Pointer[Match]
}

// admits reports whether an entry with this index and score could still
// enter the heap. It is the scan's lock-free pre-check: a ranked scan is
// CollectAll, so without it every entry would queue on the emit lock only
// for offer to refuse it. The comparison is the heap's own total order —
// a tie in score is refused only by a lower index — so the ranking is
// what offering every entry would have produced.
func (h *topKHeap) admits(index int, score float64) bool {
	kth := h.kth.Load()
	return kth == nil || !h.better(*kth, Match{Index: index, Score: score})
}

// better reports whether a outranks b.
func (h *topKHeap) better(a, b Match) bool {
	if a.Score != b.Score {
		if h.ascending {
			return a.Score < b.Score
		}
		return a.Score > b.Score
	}
	return a.Index < b.Index
}

func (h *topKHeap) Len() int           { return len(h.items) }
func (h *topKHeap) Less(i, j int) bool { return h.better(h.items[j], h.items[i]) } // worst at root
func (h *topKHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *topKHeap) Push(x interface{}) { h.items = append(h.items, x.(Match)) }
func (h *topKHeap) Pop() interface{} {
	last := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return last
}

// offer admits m if it ranks above the current K-th match.
func (h *topKHeap) offer(m Match) {
	switch {
	case len(h.items) < h.k:
		heap.Push(h, m)
		if len(h.items) < h.k {
			return
		}
	case h.better(m, h.items[0]):
		h.items[0] = m
		heap.Fix(h, 0)
	default:
		return
	}
	root := h.items[0]
	h.kth.Store(&root)
}

// ranked drains the heap into best-first order.
func (h *topKHeap) ranked() []Match {
	out := h.items
	h.items = nil
	sort.Slice(out, func(i, j int) bool { return h.better(out[i], out[j]) })
	return out
}
