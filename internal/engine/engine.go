// Package engine is the streaming scan executor of the search stack. The
// unit of work is a claimed range of scan positions, not a position: a
// worker takes [lo, hi) with one atomic add, hands it to a Runner that
// loops over it privately — reading whatever columns decide most
// positions without touching shared state — and publishes how many
// positions it finished once per range. The executor honours context
// cancellation and deadlines, captures the first runner error, and
// serialises emission so consumers — collect-all, bounded top-K heaps,
// batch drivers — can be written as plain single-threaded callbacks that
// may stop the scan early. Scan and ScanBatch are per-position adapters
// over the same executor.
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
	// (≤ 0: derived from the scan length and the worker count, see
	// claimSize). Larger chunks amortise the claim and the per-range
	// publication for cheap per-item work; smaller chunks balance skewed
	// workloads.
	Chunk int
	// Observe, when non-nil, receives the scan's wall-clock duration
	// (claim to pool drain) exactly once as the scan returns — the
	// telemetry hook for scan-stage timing. Empty scans (n ≤ 0) are not
	// observed.
	Observe func(d time.Duration)
}

const (
	// claimsPerWorker is how many ranges a derived claim size leaves each
	// worker: enough that the worker finishing last idles the others for
	// at most an eighth of its share.
	claimsPerWorker = 8
	// maxClaim caps a derived claim. Past a few thousand positions the
	// claim and the per-range publication are already free, and a runner
	// may size per-range scratch by the claim.
	maxClaim = 4096
)

// claimSize derives the range length for n positions over workers: at
// least claimsPerWorker claims each, clamped to [1, maxClaim].
func claimSize(n, workers int) int {
	c := n / (workers * claimsPerWorker)
	if c > maxClaim {
		return maxClaim
	}
	if c < 1 {
		return 1
	}
	return c
}

// Runner processes the claimed range [lo, hi) on behalf of one worker.
// It emits kept items through s.Emit, polls s.Stopped before each
// expensive step, and returns how many positions of the range it
// finished (all of them unless the scan stopped) — the executor adds that
// to the scan's count once per range. A non-nil error stops the scan and
// becomes its result. A Runner is called from one goroutine at a time, so
// state it closes over (verdict buffers, local tallies) needs no
// synchronisation; what it publishes to other goroutines, it publishes
// once per range.
type Runner[T any] func(s *Scanner[T], lo, hi int) (done int, err error)

// Scanner is the cross-worker state of one scan: the claim counter, the
// stop flag and the serialised emit. Runners receive it with each range.
type Scanner[T any] struct {
	st   scanState
	ctx  context.Context
	done <-chan struct{} // ctx.Done(), nil for a context that cannot end
	emit func(pos int, item T) bool

	emitMu  sync.Mutex
	errOnce sync.Once
	err     error
	wg      sync.WaitGroup // the workers beside the calling goroutine
}

// Stopped reports whether the scan is over — a runner failed, emit
// returned false, or the context ended — so the runner should return
// what it has finished. It reads one flag and, for a cancellable context,
// the state of its done channel: no shared write, cheap enough to poll
// before every pair of a quadratic scorer, and exact — a poll that
// starts after cancel returned sees the cancellation.
func (s *Scanner[T]) Stopped() bool {
	return s.st.stop.Load() || (s.done != nil && s.cancelled())
}

func (s *Scanner[T]) cancelled() bool {
	select {
	case <-s.done:
		s.fail(s.ctx.Err())
		return true
	default:
		return false
	}
}

func (s *Scanner[T]) fail(err error) {
	s.errOnce.Do(func() { s.err = err })
	s.st.stop.Store(true)
}

// Emit hands one kept item to the scan's consumer. Calls are serialised
// across workers and none is made once the scan has stopped; false means
// the scan is over (now, or already) and the runner should return,
// counting this position as finished.
func (s *Scanner[T]) Emit(pos int, item T) bool {
	s.emitMu.Lock()
	more := !s.Stopped() && s.emit(pos, item)
	if !more {
		// Set under emitMu: a worker waiting on the lock must see the
		// stop before it can emit again.
		s.st.stop.Store(true)
	}
	s.emitMu.Unlock()
	return more
}

// ScanRanges processes positions 0..n-1 with a worker pool, one claimed
// range at a time. newRunner is called once per worker, from the calling
// goroutine (so a runner may own scratch state); the last worker runs on
// the calling goroutine too. emit is serialised (never called
// concurrently) but observes positions in no particular order; returning
// false stops the scan early without error. A runner error or an ended
// context stops the scan and is returned. The int result counts the
// positions runners reported finished — n for a complete scan, possibly
// fewer after a stop.
func ScanRanges[T any](ctx context.Context, n int, opt Options, newRunner func() Runner[T], emit func(pos int, item T) bool) (int, error) {
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
	chunk := opt.Chunk
	if chunk <= 0 {
		chunk = claimSize(n, workers)
	}
	if claims := (n + chunk - 1) / chunk; workers > claims {
		workers = claims
	}

	s := &Scanner[T]{ctx: ctx, done: ctx.Done(), emit: emit}
	s.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		run := newRunner()
		go func() {
			defer s.wg.Done()
			s.work(run, chunk, n)
		}()
	}
	s.work(newRunner(), chunk, n)
	s.wg.Wait()
	return int(s.st.scanned.Load()), s.err
}

// work is one worker: claim a range, run it, publish its count, until the
// positions run out or the scan stops.
func (s *Scanner[T]) work(run Runner[T], chunk, n int) {
	for !s.Stopped() {
		lo, hi := s.st.claim(chunk, n)
		if lo >= n {
			return
		}
		done, err := run(s, lo, hi)
		s.st.scanned.Add(int64(done))
		if err != nil {
			s.fail(err)
			return
		}
	}
}

// Scan is the per-position form of ScanRanges.
//
// process runs concurrently; it returns the item for a position and
// whether it should be emitted. emit is serialised (never called
// concurrently) but observes positions in no particular order; returning
// false stops the scan early without error. A process error or an expired
// context stops the scan and is returned. The int result counts positions
// actually processed — n for a complete scan, possibly fewer after an
// early stop.
func Scan[T any](ctx context.Context, n int, opt Options, process func(pos int) (T, bool, error), emit func(pos int, item T) bool) (int, error) {
	run := func(s *Scanner[T], lo, hi int) (int, error) {
		for pos := lo; pos < hi; pos++ {
			if s.Stopped() {
				return pos - lo, nil
			}
			item, keep, err := process(pos)
			if err != nil {
				return pos - lo, err
			}
			if keep && !s.Emit(pos, item) {
				return pos - lo + 1, nil
			}
		}
		return hi - lo, nil
	}
	return ScanRanges(ctx, n, opt, func() Runner[T] { return run }, emit)
}

// cacheLine is the padding unit of scanState; 64 bytes covers amd64 and
// most arm64 parts.
const cacheLine = 64

// scanState is the part of a scan every worker touches. Each word sits on
// its own cache line: next is written once per claimed range by every
// worker and stop is read before every expensive step, so sharing a line
// would have each claim invalidate the line every other worker polls.
// scanned is likewise added to once per range — with the exact number of
// positions the runner finished, so an early-stopped or cancelled scan
// still reports the true count — not once per position.
type scanState struct {
	next    atomic.Int64 // next unclaimed position
	_       [cacheLine - 8]byte
	scanned atomic.Int64 // positions fully processed
	_       [cacheLine - 8]byte
	stop    atomic.Bool // error, cancellation, or emit returned false
	_       [cacheLine - 1]byte
}

// claim takes the next range of positions; lo ≥ n means none are left.
func (st *scanState) claim(chunk, n int) (lo, hi int) {
	lo = int(st.next.Add(int64(chunk))) - chunk
	hi = lo + chunk
	if hi > n {
		hi = n
	}
	return lo, hi
}
