// Package telemetry is the observability core of the serving stack:
// lock-free counters and log-bucketed latency histograms with a
// zero-allocation record path, mergeable snapshots with exact-rank
// quantile extraction, and a minimal Prometheus text-format renderer.
//
// The recording side is built for hot paths: Histogram.RecordNS is three
// atomic adds (count, sum, one bucket) with no locks, no allocation and
// no time formatting — cheap enough to sit inside the search scan and
// the WAL group-commit protocol. The reading side (Snapshot, Quantile,
// WriteProm) pays the full O(buckets) cost and is meant for /metrics
// scrapes and /v1/stats, not per-request work.
//
// Metric groups mirror the layers that record them: SearchMetrics
// (per-stage search timing, owned by the Database), StoreMetrics
// (per-shard scan/prune counters and mutation timing, owned by
// shard.Map), and WALMetrics (append/fsync/commit-wait, owned by the
// durability layer). The HTTP layer composes its own per-endpoint
// groups from the same Histogram primitive.
package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The bucket scheme is HDR-style log-linear: values 0..63 ns are exact,
// then every power-of-two octave splits into 32 sub-buckets, bounding
// the relative quantile error at ~3% (1/32). The full uint64 range fits
// in 1920 buckets — 15 KiB of atomic counters per histogram.
const (
	subBits  = 5
	subCount = 1 << subBits
	// NumBuckets covers every uint64 nanosecond value: 2·32 exact
	// buckets (0..63), then 58 octaves × 32 sub-buckets.
	NumBuckets = (64 - subBits + 1) * subCount
)

// bucketIndex maps a nanosecond value to its bucket. For v ≥ 64 the
// index is shift·32 + (v>>shift) with shift = floor(log2 v) − 5, so
// consecutive octaves tile the index space contiguously.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	shift := uint(bits.Len64(v)) - 1 - subBits
	return int(uint64(shift)*subCount) + int(v>>shift)
}

// BucketBounds returns the inclusive [lo, hi] nanosecond range of a
// bucket index (the inverse of the record-side mapping).
func BucketBounds(idx int) (lo, hi uint64) {
	if idx < 2*subCount {
		return uint64(idx), uint64(idx)
	}
	shift := uint(idx/subCount) - 1
	r := uint64(idx) - uint64(shift)*subCount
	lo = r << shift
	return lo, lo + (1 << shift) - 1
}

// Histogram is a fixed-size log-bucketed latency histogram safe for
// concurrent recording. The zero value is ready to use. Recording is
// lock-free and allocation-free; negative inputs clamp to zero.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	buckets [NumBuckets]atomic.Uint64
}

// RecordNS records one nanosecond observation: three atomic adds.
func (h *Histogram) RecordNS(ns int64) {
	var v uint64
	if ns > 0 {
		v = uint64(ns)
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// Observe records one duration observation.
func (h *Histogram) Observe(d time.Duration) { h.RecordNS(int64(d)) }

// Count returns the number of observations recorded so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// SumNS returns the running sum of observations in nanoseconds.
func (h *Histogram) SumNS() uint64 { return h.sum.Load() }

// Snapshot is a point-in-time copy of a histogram, suitable for
// quantile extraction. Under concurrent
// recording the copy is not a linearizable cut — each bucket (and the
// count/sum pair) is individually exact and monotone, but a recorder
// racing the copy may land in count and not yet in its bucket, or vice
// versa. Quantile and the Prometheus renderer therefore trust the
// bucket array (Total) over the Count field.
type Snapshot struct {
	Count   uint64
	SumNS   uint64
	Buckets [NumBuckets]uint64
}

// Load fills s from the histogram's current state. It takes a pointer
// destination (rather than returning by value) so callers can reuse one
// 15 KiB snapshot across scrapes.
func (h *Histogram) Load(s *Snapshot) {
	s.Count = h.count.Load()
	s.SumNS = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
}

// Total returns the number of observations in the bucket array — the
// authoritative population for quantile extraction.
func (s *Snapshot) Total() uint64 {
	var n uint64
	for i := range s.Buckets {
		n += s.Buckets[i]
	}
	return n
}

// Quantile returns the upper bound (in nanoseconds) of the bucket
// holding the exact rank-⌈q·n⌉ observation, clamping q to [0, 1]. With
// the log-linear scheme the true order statistic is within ~3% below
// the returned value. An empty snapshot returns 0.
func (s *Snapshot) Quantile(q float64) int64 {
	total := s.Total()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	r := q * float64(total)
	rank := uint64(r)
	if float64(rank) < r {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := range s.Buckets {
		cum += s.Buckets[i]
		if cum >= rank {
			_, hi := BucketBounds(i)
			return int64(hi)
		}
	}
	return 0 // unreachable: cum reaches total
}

// MaxNS returns the upper bound of the highest non-empty bucket.
func (s *Snapshot) MaxNS() int64 {
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			_, hi := BucketBounds(i)
			return int64(hi)
		}
	}
	return 0
}

// MeanNS returns the arithmetic mean in nanoseconds (0 when empty).
func (s *Snapshot) MeanNS() int64 {
	if s.Count == 0 {
		return 0
	}
	return int64(s.SumNS / s.Count)
}
