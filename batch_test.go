package gsim_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"gsim"
	"gsim/internal/dataset"
)

// batchQueries materialises n queries from the dataset's held-out
// workload, cycling when the workload is shorter than n.
func batchQueries(ds *dataset.Dataset, n int) []*gsim.Query {
	out := make([]*gsim.Query, n)
	for i := range out {
		out[i] = gsim.CollectionQuery(ds.Col, ds.Queries[i%len(ds.Queries)])
	}
	return out
}

// TestSearchBatchStrategiesAgree: the two ways to consume a batch — the
// collected SearchBatch and the streamed SearchBatchFunc — must produce
// identical Results (same matches, same scores, same scan counts), each
// query delivered once and in order, for every registered method with and
// without the prefilter, and for CollectAll. (The name predates the single
// executor, when it compared entry-major with query-major.)
func TestSearchBatchStrategiesAgree(t *testing.T) {
	ds := tinyDataset(t, 46)
	d := openDataset(t, ds)
	queries := batchQueries(ds, len(ds.Queries))
	var opts []gsim.SearchOptions
	for _, m := range gsim.Methods() {
		opts = append(opts,
			gsim.SearchOptions{Method: m, Tau: 3, Gamma: 0.5},
			gsim.SearchOptions{Method: m, Tau: 3, Gamma: 0.5, Prefilter: true})
	}
	opts = append(opts,
		gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Gamma: 0.5, CollectAll: true},
		gsim.SearchOptions{Method: gsim.Seriation, Tau: 3, CollectAll: true})
	for _, opt := range opts {
		want, err := d.SearchBatch(context.Background(), queries, opt)
		if err != nil {
			t.Fatalf("%v prefilter=%v collectAll=%v collected: %v", opt.Method, opt.Prefilter, opt.CollectAll, err)
		}
		next := 0
		err = d.SearchBatchFunc(context.Background(), queries, opt, func(i int, got *gsim.Result) error {
			if i != next {
				t.Fatalf("%v prefilter=%v collectAll=%v: streamed query %d, want %d",
					opt.Method, opt.Prefilter, opt.CollectAll, i, next)
			}
			next++
			if !reflect.DeepEqual(got.Matches, want[i].Matches) {
				t.Fatalf("%v prefilter=%v collectAll=%v query %d: streamed %v, collected %v",
					opt.Method, opt.Prefilter, opt.CollectAll, i, got.Matches, want[i].Matches)
			}
			if got.Scanned != want[i].Scanned {
				t.Fatalf("%v prefilter=%v collectAll=%v query %d: streamed scanned %d, collected %d",
					opt.Method, opt.Prefilter, opt.CollectAll, i, got.Scanned, want[i].Scanned)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v prefilter=%v collectAll=%v streamed: %v", opt.Method, opt.Prefilter, opt.CollectAll, err)
		}
		if next != len(queries) {
			t.Fatalf("%v prefilter=%v collectAll=%v: streamed %d results for %d queries",
				opt.Method, opt.Prefilter, opt.CollectAll, next, len(queries))
		}
	}
}

// TestSearchBatchEntryMajorCancellation: a cancelled context fails a
// streamed batch before any result reaches the callback, and a mid-batch
// cancellation aborts the remaining scans. (The name predates the single
// executor; the checks now run against it.)
func TestSearchBatchEntryMajorCancellation(t *testing.T) {
	ds := tinyDataset(t, 49)
	d := openDataset(t, ds)
	queries := batchQueries(ds, 4)
	opt := gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Gamma: 0.5}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := d.SearchBatchFunc(ctx, queries, opt, func(i int, res *gsim.Result) error {
		t.Fatal("callback fired under a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Cancel after the first result; the second scan aborts.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var calls int
	err = d.SearchBatchFunc(ctx, queries, opt, func(i int, res *gsim.Result) error {
		calls++
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-batch err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("callback fired %d times after mid-batch cancel", calls)
	}
}

// TestSearchBatchFuncCallbackErrorAborts: a callback error aborts the rest
// of the batch and is returned verbatim.
func TestSearchBatchFuncCallbackErrorAborts(t *testing.T) {
	ds := tinyDataset(t, 50)
	d := openDataset(t, ds)
	queries := batchQueries(ds, 4)
	boom := errors.New("consumer failed")
	var calls int
	err := d.SearchBatchFunc(context.Background(), queries, gsim.SearchOptions{
		Method: gsim.GBDA, Tau: 3, Gamma: 0.5,
	}, func(i int, res *gsim.Result) error {
		calls++
		if i == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback error", err)
	}
	if calls != 2 {
		t.Fatalf("callback fired %d times, want 2 (abort after the error)", calls)
	}
}

// TestSearchTopKBatchMatchesSearchTopK: the batched ranking must agree
// with per-query SearchTopK for every rankable method, and reject the
// methods SearchTopK rejects.
func TestSearchTopKBatchMatchesSearchTopK(t *testing.T) {
	ds := tinyDataset(t, 51)
	d := openDataset(t, ds)
	queries := batchQueries(ds, len(ds.Queries))
	for _, m := range []gsim.Method{gsim.GBDA, gsim.GBDAV2, gsim.GreedySort, gsim.Seriation} {
		opt := gsim.TopKOptions{Method: m, K: 5, Tau: 4}
		batch, err := d.SearchTopKBatch(context.Background(), queries, opt)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for i, q := range queries {
			single, err := d.SearchTopK(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batch[i].Matches, single.Matches) {
				t.Fatalf("%v query %d: batch %v, single %v", m, i, batch[i].Matches, single.Matches)
			}
			if batch[i].Scanned != single.Scanned {
				t.Fatalf("%v query %d: batch scanned %d, single %d", m, i, batch[i].Scanned, single.Scanned)
			}
		}
	}
	if _, err := d.SearchTopKBatch(context.Background(), queries, gsim.TopKOptions{Method: gsim.Exact, K: 5}); err == nil {
		t.Fatal("SearchTopKBatch accepted a non-rankable method")
	}
}
