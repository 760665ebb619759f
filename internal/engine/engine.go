// Package engine is the streaming scan executor of the search stack. It
// distributes scan positions over a worker pool with chunked atomic claims
// (no mutex on the hot path), honours context cancellation and deadlines,
// captures the first worker error, and serialises emission so consumers —
// collect-all, bounded top-K heaps, batch drivers — can be written as plain
// single-threaded callbacks that may stop the scan early.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Options tunes one scan.
type Options struct {
	// Workers bounds parallelism (≤ 0: GOMAXPROCS).
	Workers int
	// Chunk is the number of positions claimed per atomic increment
	// (≤ 0: 16). Larger chunks amortise the claim for cheap per-item
	// work; smaller chunks balance skewed workloads.
	Chunk int
	// Observe, when non-nil, receives the scan's wall-clock duration
	// (claim to pool drain) exactly once as Scan/ScanBatch returns —
	// the telemetry hook for scan-stage timing. Empty scans (n ≤ 0)
	// are not observed.
	Observe func(d time.Duration)
}

// DefaultChunk is the work-claim granularity when Options.Chunk is unset.
const DefaultChunk = 16

// Scan processes positions 0..n-1 with a worker pool.
//
// process runs concurrently; it returns the item for a position and
// whether it should be emitted. emit is serialised (never called
// concurrently) but observes positions in no particular order; returning
// false stops the scan early without error. A process error or an expired
// context stops the scan and is returned. The int result counts positions
// actually processed — n for a complete scan, possibly fewer after an
// early stop.
func Scan[T any](ctx context.Context, n int, opt Options, process func(pos int) (T, bool, error), emit func(pos int, item T) bool) (int, error) {
	if n <= 0 {
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
	// runChunk processes [lo, hi) and reports how many positions it
	// finished and whether the worker should claim another chunk.
	runChunk := func(lo, hi int) (done int, more bool) {
		for pos := lo; pos < hi; pos++ {
			if st.stop.Load() {
				return done, false
			}
			item, keep, err := process(pos)
			if err != nil {
				fail(err)
				return done, false
			}
			done++
			if !keep {
				continue
			}
			emitMu.Lock()
			if st.stop.Load() {
				emitMu.Unlock()
				return done, false
			}
			cont := emit(pos, item)
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
		for !st.stop.Load() {
			lo, hi := st.claim(chunk, n)
			if lo >= n {
				return
			}
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			done, more := runChunk(lo, hi)
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

// cacheLine is the padding unit of scanState; 64 bytes covers amd64 and
// most arm64 parts.
const cacheLine = 64

// scanState is the cross-worker state of one scan. Each word sits on its
// own cache line: next is written once per claimed chunk by every worker
// and stop is read before every position, so sharing a line would have
// each claim invalidate the line every other worker polls per entry.
// scanned is likewise added to once per chunk — with the exact number of
// positions the worker finished, so an early-stopped or cancelled scan
// still reports the true count — not once per entry.
type scanState struct {
	next    atomic.Int64 // next unclaimed position
	_       [cacheLine - 8]byte
	scanned atomic.Int64 // positions fully processed
	_       [cacheLine - 8]byte
	stop    atomic.Bool // error, cancellation, or emit returned false
	_       [cacheLine - 1]byte
}

// claim takes the next chunk of positions; lo ≥ n means none are left.
func (st *scanState) claim(chunk, n int) (lo, hi int) {
	lo = int(st.next.Add(int64(chunk))) - chunk
	hi = lo + chunk
	if hi > n {
		hi = n
	}
	return lo, hi
}
