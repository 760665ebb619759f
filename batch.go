package gsim

import "context"

// SearchBatch runs one configured search over a whole query workload,
// returning one Result per query in input order. Preparation is amortised
// across the batch: the scorer is validated and prepared once (for GBDA-V1
// that includes the α-graph size sample), the store's cut is taken once,
// and with Prefilter the admissible index is built/synced once —
// where a Search loop would redo all of it per query. Each query then runs
// the scan Search runs, so every Result reports its own Scanned, Elapsed
// and Stages; the prepare and cut spans are the shared preparation's.
//
// SearchBatch retains every Result until the batch completes — with
// CollectAll that is O(queries × database) matches. Workloads that can
// consume results one at a time should use SearchBatchFunc and keep peak
// memory at one query's result.
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
// soon as that query's scan completes, in input order, so at most one
// Result is in flight and only what fn retains stays live. A fn error
// aborts the rest of the batch and is returned.
func (d *Database) SearchBatchFunc(ctx context.Context, queries []*Query, opt SearchOptions, fn func(i int, res *Result) error) error {
	ps, err := d.prepare(opt)
	if err != nil {
		return err
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
