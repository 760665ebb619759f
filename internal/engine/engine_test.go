package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// scanFn is Scan's shape; the cases below run through each of the
// package's three entry points in it.
type scanFn func(ctx context.Context, n int, opt Options, process func(pos int) (int, bool, error), emit func(pos, item int) bool) (int, error)

// verdict is what the ScanBatch form of a case carries per position.
type verdict struct {
	item int
	keep bool
}

// entryPoints are Scan itself, ScanBatch with a one-query batch whose emit
// drops what process did not keep, and ScanRanges with a hand-written
// per-position runner.
var entryPoints = []struct {
	name string
	scan scanFn
}{
	{"Scan", Scan[int]},
	{"ScanBatch", func(ctx context.Context, n int, opt Options, process func(pos int) (int, bool, error), emit func(pos, item int) bool) (int, error) {
		return ScanBatch(ctx, n, 1, opt,
			func(pos int, out []verdict) (err error) {
				out[0].item, out[0].keep, err = process(pos)
				return err
			},
			func(pos int, out []verdict) bool { return !out[0].keep || emit(pos, out[0].item) })
	}},
	{"ScanRanges", func(ctx context.Context, n int, opt Options, process func(pos int) (int, bool, error), emit func(pos, item int) bool) (int, error) {
		run := func(s *Scanner[int], lo, hi int) (int, error) {
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
		return ScanRanges(ctx, n, opt, func() Runner[int] { return run }, emit)
	}},
}

// eachEntryPoint runs one case as a subtest per entry point.
func eachEntryPoint(t *testing.T, fn func(t *testing.T, scan scanFn)) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) { fn(t, ep.scan) })
	}
}

// TestScanCoversEveryPosition: a full scan must process and emit every
// position exactly once, at any worker count and across chunk boundaries.
func TestScanCoversEveryPosition(t *testing.T) {
	eachEntryPoint(t, func(t *testing.T, scan scanFn) {
		for _, workers := range []int{1, 2, 7, 64} {
			for _, n := range []int{1, 15, 16, 17, 100} {
				var got []int
				scanned, err := scan(context.Background(), n, Options{Workers: workers},
					func(pos int) (int, bool, error) { return pos * 2, true, nil },
					func(pos, item int) bool {
						if item != pos*2 {
							t.Fatalf("item %d at pos %d", item, pos)
						}
						got = append(got, pos)
						return true
					})
				if err != nil {
					t.Fatal(err)
				}
				if scanned != n {
					t.Fatalf("workers=%d n=%d: scanned %d", workers, n, scanned)
				}
				sort.Ints(got)
				for i, pos := range got {
					if i != pos {
						t.Fatalf("workers=%d n=%d: emitted %v", workers, n, got)
					}
				}
			}
		}
	})
}

// TestScanKeepFilters: positions with keep=false are counted as scanned
// but never emitted.
func TestScanKeepFilters(t *testing.T) {
	eachEntryPoint(t, func(t *testing.T, scan scanFn) {
		var emitted int
		scanned, err := scan(context.Background(), 50, Options{Workers: 4},
			func(pos int) (int, bool, error) { return pos, pos%2 == 0, nil },
			func(pos, item int) bool { emitted++; return true })
		if err != nil {
			t.Fatal(err)
		}
		if scanned != 50 || emitted != 25 {
			t.Fatalf("scanned=%d emitted=%d", scanned, emitted)
		}
	})
}

// TestScanFirstError: a process error stops the scan and is returned.
func TestScanFirstError(t *testing.T) {
	eachEntryPoint(t, func(t *testing.T, scan scanFn) {
		boom := errors.New("boom")
		_, err := scan(context.Background(), 1000, Options{Workers: 8},
			func(pos int) (int, bool, error) {
				if pos == 100 {
					return 0, false, boom
				}
				return pos, true, nil
			},
			func(pos, item int) bool { return true })
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	})
}

// TestScanEarlyStop: emit returning false ends the scan without error and
// without further emissions.
func TestScanEarlyStop(t *testing.T) {
	eachEntryPoint(t, func(t *testing.T, scan scanFn) {
		var emits int
		scanned, err := scan(context.Background(), 10_000, Options{Workers: 8},
			func(pos int) (int, bool, error) { return pos, true, nil },
			func(pos, item int) bool { emits++; return false })
		if err != nil {
			t.Fatal(err)
		}
		if emits != 1 {
			t.Fatalf("emit called %d times after stop", emits)
		}
		if scanned > 10_000 {
			t.Fatalf("scanned %d > n", scanned)
		}
	})
}

// TestScanCancelledContext: an already-cancelled context aborts before
// processing and surfaces context.Canceled.
func TestScanCancelledContext(t *testing.T) {
	eachEntryPoint(t, func(t *testing.T, scan scanFn) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var processed int
		_, err := scan(ctx, 1000, Options{Workers: 4},
			func(pos int) (int, bool, error) { processed++; return pos, true, nil },
			func(pos, item int) bool { return true })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if processed != 0 {
			t.Fatalf("processed %d positions under a cancelled context", processed)
		}
	})
}

// TestScanCancelMidway: cancelling during the scan stops remaining chunks.
func TestScanCancelMidway(t *testing.T) {
	eachEntryPoint(t, func(t *testing.T, scan scanFn) {
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		scanned, err := scan(ctx, 100_000, Options{Workers: 4},
			func(pos int) (int, bool, error) {
				once.Do(cancel)
				return pos, true, nil
			},
			func(pos, item int) bool { return true })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if scanned == 100_000 {
			t.Fatal("cancellation did not shorten the scan")
		}
	})
}

// TestScanEmitSerialised: emit must never run concurrently.
func TestScanEmitSerialised(t *testing.T) {
	eachEntryPoint(t, func(t *testing.T, scan scanFn) {
		var busy atomic.Int32
		var overlapped atomic.Bool
		_, err := scan(context.Background(), 5000, Options{Workers: 8},
			func(pos int) (int, bool, error) { return pos, true, nil },
			func(pos, item int) bool {
				if !busy.CompareAndSwap(0, 1) {
					overlapped.Store(true)
				}
				busy.Store(0)
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
		if overlapped.Load() {
			t.Fatal("emit ran concurrently")
		}
	})
}

// TestScanEmpty: n ≤ 0 is a clean no-op.
func TestScanEmpty(t *testing.T) {
	eachEntryPoint(t, func(t *testing.T, scan scanFn) {
		for _, n := range []int{0, -3} {
			scanned, err := scan(context.Background(), n, Options{},
				func(pos int) (int, bool, error) { return 0, true, fmt.Errorf("must not run") },
				func(pos, item int) bool { t.Fatal("must not emit"); return false })
			if err != nil || scanned != 0 {
				t.Fatalf("n=%d: scanned=%d err=%v", n, scanned, err)
			}
		}
	})
}

// TestScanCountsExactlyWhatItProcessed: scanned is added once per claimed
// chunk, so a worker that stops mid-chunk must still report exactly the
// positions it finished — after an early stop and after a cancellation,
// whether the stop lands on a chunk boundary or inside one.
func TestScanCountsExactlyWhatItProcessed(t *testing.T) {
	eachEntryPoint(t, func(t *testing.T, scan scanFn) {
		for _, workers := range []int{1, 4} {
			for _, stopAt := range []int{0, 5, 16, 100, 1000} {
				var processed atomic.Int64
				process := func(pos int) (int, bool, error) {
					processed.Add(1)
					return pos, pos >= stopAt, nil
				}
				scanned, err := scan(context.Background(), 5000, Options{Workers: workers}, process,
					func(pos, item int) bool { return false })
				if err != nil {
					t.Fatal(err)
				}
				if got := int(processed.Load()); scanned != got || scanned > 4999 {
					t.Fatalf("early stop at %d, workers=%d: scanned %d, processed %d", stopAt, workers, scanned, got)
				}

				processed.Store(0)
				ctx, cancel := context.WithCancel(context.Background())
				scanned, err = scan(ctx, 5000, Options{Workers: workers},
					func(pos int) (int, bool, error) {
						if pos == stopAt {
							cancel()
						}
						return process(pos)
					},
					func(pos, item int) bool { return true })
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if got := int(processed.Load()); scanned != got || scanned == 5000 {
					t.Fatalf("cancel at %d, workers=%d: scanned %d, processed %d", stopAt, workers, scanned, got)
				}
			}
		}
	})
}
