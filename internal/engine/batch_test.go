package engine

import (
	"context"
	"errors"
	"testing"
)

// TestScanBatchCoversEveryPosition: every position is processed and
// emitted exactly once with a fully-filled verdict vector, at any worker
// count and across chunk boundaries.
func TestScanBatchCoversEveryPosition(t *testing.T) {
	const q = 5
	for _, workers := range []int{1, 2, 7, 64} {
		for _, n := range []int{1, 15, 16, 17, 100} {
			seen := make([]bool, n)
			scanned, err := ScanBatch(context.Background(), n, q, Options{Workers: workers},
				func(pos int, out []int) error {
					for k := range out {
						out[k] = pos*q + k
					}
					return nil
				},
				func(pos int, out []int) bool {
					if len(out) != q {
						t.Fatalf("emit saw %d verdicts, want %d", len(out), q)
					}
					for k, v := range out {
						if v != pos*q+k {
							t.Fatalf("pos %d verdict %d: got %d", pos, k, v)
						}
					}
					if seen[pos] {
						t.Fatalf("pos %d emitted twice", pos)
					}
					seen[pos] = true
					return true
				})
			if err != nil {
				t.Fatal(err)
			}
			if scanned != n {
				t.Fatalf("workers=%d n=%d: scanned %d", workers, n, scanned)
			}
			for pos, ok := range seen {
				if !ok {
					t.Fatalf("workers=%d n=%d: pos %d never emitted", workers, n, pos)
				}
			}
		}
	}
}

// TestScanBatchBufferReset: the worker-local buffer carries the previous
// position's verdicts into process, which must overwrite them — the stale
// values must never leak to emit once process does its job.
func TestScanBatchBufferReset(t *testing.T) {
	_, err := ScanBatch(context.Background(), 200, 3, Options{Workers: 2},
		func(pos int, out []int) error {
			for k := range out {
				out[k] = pos
			}
			return nil
		},
		func(pos int, out []int) bool {
			for _, v := range out {
				if v != pos {
					t.Fatalf("pos %d saw stale verdict %d", pos, v)
				}
			}
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
}

// First error, early stop and cancellation through ScanBatch are the
// engine_test.go cases, which run through every entry point.

// TestScanBatchEmpty: n ≤ 0 or q ≤ 0 is a clean no-op.
func TestScanBatchEmpty(t *testing.T) {
	for _, nq := range [][2]int{{0, 3}, {-3, 3}, {5, 0}} {
		scanned, err := ScanBatch(context.Background(), nq[0], nq[1], Options{},
			func(pos int, out []int) error { return errors.New("must not run") },
			func(pos int, out []int) bool { t.Fatal("must not emit"); return false })
		if err != nil || scanned != 0 {
			t.Fatalf("n=%d q=%d: scanned=%d err=%v", nq[0], nq[1], scanned, err)
		}
	}
}
