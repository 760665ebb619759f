package engine

import (
	"context"
	"runtime"
	"sync"
	"time"
)

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
// The worker-pool skeleton deliberately mirrors Scan rather than sharing
// code with it: ScanBatch must emit every position (consumers need the
// whole verdict vector), while Scan takes the emit lock only for kept
// matches — folding one into the other would either add lock traffic to
// the single-query hot path or a keep-mask to every batch consumer. A fix
// to the claim/stop/emit discipline here likely applies to Scan too.
func ScanBatch[T any](ctx context.Context, n, q int, opt Options, process func(pos int, out []T) error, emit func(pos int, out []T) bool) (int, error) {
	if n <= 0 || q <= 0 {
		return 0, ctx.Err()
	}
	if opt.Observe != nil {
		start := time.Now()
		defer func() { opt.Observe(time.Since(start)) }()
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	chunk := opt.Chunk
	if chunk <= 0 {
		chunk = DefaultChunk
	}

	var (
		st       scanState
		errOnce  sync.Once
		firstErr error
		emitMu   sync.Mutex
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		st.stop.Store(true)
	}
	// runChunk mirrors Scan's: positions finished, and whether to go on.
	runChunk := func(lo, hi int, buf []T) (done int, more bool) {
		for pos := lo; pos < hi; pos++ {
			if st.stop.Load() {
				return done, false
			}
			if err := process(pos, buf); err != nil {
				fail(err)
				return done, false
			}
			done++
			emitMu.Lock()
			if st.stop.Load() {
				emitMu.Unlock()
				return done, false
			}
			cont := emit(pos, buf)
			if !cont {
				// Set under emitMu: a worker waiting on the lock
				// must see the stop before it can emit again.
				st.stop.Store(true)
			}
			emitMu.Unlock()
			if !cont {
				return done, false
			}
		}
		return done, true
	}

	worker := func() {
		defer wg.Done()
		buf := make([]T, q) // worker-local verdict buffer, reused per position
		for !st.stop.Load() {
			lo, hi := st.claim(chunk, n)
			if lo >= n {
				return
			}
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			done, more := runChunk(lo, hi, buf)
			st.scanned.Add(int64(done))
			if !more {
				return
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	return int(st.scanned.Load()), firstErr
}
