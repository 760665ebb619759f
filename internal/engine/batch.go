package engine

import "context"

// ScanBatch is the entry-major counterpart of Scan for multi-query
// workloads: workers claim scan positions (database entries, not queries),
// produce one verdict per query for each claimed position, and move on —
// so each position's shared work is paid once per batch instead of once
// per query.
//
// process runs concurrently; it receives a reusable q-element buffer owned
// by the calling worker and must overwrite every element (the buffer
// retains the previous position's verdicts). emit is serialised (never
// called concurrently) and observes positions in no particular order; the
// buffer it receives is reused for the worker's next position, so emit
// must copy anything it retains. Returning false stops the scan early
// without error. A process error or an expired context stops the scan and
// is returned. The int result counts positions actually processed.
//
// It is ScanRanges with a runner that owns the verdict buffer and emits
// every position — a consumer that wants only some of them writes its
// own runner and calls Emit for those. benchmark/ladder.go is its only
// non-test caller.
func ScanBatch[T any](ctx context.Context, n, q int, opt Options, process func(pos int, out []T) error, emit func(pos int, out []T) bool) (int, error) {
	if q <= 0 {
		return 0, ctx.Err()
	}
	newRunner := func() Runner[[]T] {
		buf := make([]T, q) // worker-local verdict buffer, reused per position
		return func(s *Scanner[[]T], lo, hi int) (int, error) {
			for pos := lo; pos < hi; pos++ {
				if s.Stopped() {
					return pos - lo, nil
				}
				if err := process(pos, buf); err != nil {
					return pos - lo, err
				}
				if !s.Emit(pos, buf) {
					return pos - lo + 1, nil
				}
			}
			return hi - lo, nil
		}
	}
	return ScanRanges(ctx, n, opt, newRunner, emit)
}
