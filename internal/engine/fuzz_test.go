package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// FuzzScanRanges drives the range executor with a runner that reports
// every claim, and checks the executor's bookkeeping whatever ends the
// scan: no position is handed out twice, scanned is exactly what the
// runners reported finished, emit is never concurrent and never called
// again once it has returned false (nor, on one worker where "after" is
// defined, once a runner failed or cancelled), and the error is the one
// the scan was given. stopAt, failAt and cancelAt are positions (≥ n: never); the
// runner emits every third position.
func FuzzScanRanges(f *testing.F) {
	// The seed corpus is testdata/fuzz/FuzzScanRanges: one file per way a
	// scan can end, at a claim boundary and inside a claim.
	f.Add(uint16(100), uint8(0), uint8(4), uint16(1000), uint16(1000), uint16(1000))
	f.Fuzz(func(t *testing.T, n16 uint16, chunk, workers uint8, stopAt, failAt, cancelAt uint16) {
		n := int(n16) % 3000
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		boom := errors.New("boom")

		var (
			mu       sync.Mutex
			handed   = make([]int, n) // times each position was inside a claim
			finished int              // Σ done over every runner call
			emitting atomic.Bool
			emits    int
			closed   bool // emit returned false
			over     bool // one worker only: a runner failed or cancelled
		)
		newRunner := func() Runner[int] {
			return func(s *Scanner[int], lo, hi int) (done int, err error) {
				defer func() {
					mu.Lock()
					for pos := lo; pos < hi; pos++ {
						handed[pos]++
					}
					finished += done
					mu.Unlock()
				}()
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("claim [%d, %d) of %d", lo, hi, n)
				}
				for pos := lo; pos < hi; pos++ {
					if s.Stopped() {
						return pos - lo, nil
					}
					if pos == int(cancelAt) {
						cancel()
					}
					if workers == 1 && (pos == int(cancelAt) || pos == int(failAt)) {
						over = true
					}
					if pos == int(failAt) {
						return pos - lo, boom
					}
					if pos%3 == 0 && !s.Emit(pos, pos) {
						return pos - lo + 1, nil
					}
				}
				return hi - lo, nil
			}
		}
		emit := func(pos, item int) bool {
			if !emitting.CompareAndSwap(false, true) {
				t.Error("emit ran concurrently")
			}
			defer emitting.Store(false)
			if closed || over {
				t.Error("emit called after the scan stopped")
			}
			emits++
			closed = pos == int(stopAt)
			return !closed
		}
		scanned, err := ScanRanges(ctx, n, Options{Workers: int(workers), Chunk: int(chunk)}, newRunner, emit)

		if scanned != finished {
			t.Errorf("scanned %d, runners finished %d", scanned, finished)
		}
		for pos, c := range handed {
			if c > 1 {
				t.Errorf("position %d handed out %d times", pos, c)
			}
		}
		switch {
		case err == nil:
			if int(failAt) < n && handed[failAt] > 0 && !closed {
				// The failing position was claimed and nothing stopped
				// the scan before the runner got there.
				t.Errorf("position %d was claimed but its error was lost", failAt)
			}
		case errors.Is(err, boom):
			if int(failAt) >= n {
				t.Errorf("err = %v without a failing position", err)
			}
		case errors.Is(err, context.Canceled):
			if int(cancelAt) >= n {
				t.Errorf("err = %v without a cancelling position", err)
			}
		default:
			t.Errorf("err = %v", err)
		}
		if int(stopAt) >= n && int(failAt) >= n && int(cancelAt) >= n {
			if err != nil || scanned != n || emits != (n+2)/3 {
				t.Errorf("undisturbed scan of %d: scanned %d, %d emits, err %v", n, scanned, emits, err)
			}
			for pos, c := range handed {
				if c != 1 {
					t.Errorf("position %d handed out %d times", pos, c)
				}
			}
		}
	})
}
