package telemetry

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketRoundTrip checks the record-side mapping against its
// inverse: every probed value lands in a bucket whose bounds contain
// it, indexes are monotone in the value, and the full range fits.
func TestBucketRoundTrip(t *testing.T) {
	probe := []uint64{0, 1, 31, 32, 33, 63, 64, 65, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, 1<<63 - 1, 1 << 63, ^uint64(0)}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		probe = append(probe, rng.Uint64()>>(rng.Intn(64)))
	}
	for _, v := range probe {
		idx := bucketIndex(v)
		if idx < 0 || idx >= NumBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
		}
		lo, hi := BucketBounds(idx)
		if v < lo || v > hi {
			t.Fatalf("value %d mapped to bucket %d with bounds [%d, %d]", v, idx, lo, hi)
		}
	}
	// Monotone and contiguous: bucket i+1 starts right after bucket i.
	for i := 0; i < NumBuckets-1; i++ {
		_, hi := BucketBounds(i)
		lo, _ := BucketBounds(i + 1)
		if lo != hi+1 {
			t.Fatalf("buckets %d and %d not contiguous: hi=%d next lo=%d", i, i+1, hi, lo)
		}
	}
	if _, hi := BucketBounds(NumBuckets - 1); hi != ^uint64(0) {
		t.Fatalf("last bucket tops out at %d, want MaxUint64", hi)
	}
}

// TestQuantileOracle replays random workloads into a histogram and
// checks every extracted quantile against a sorted-slice oracle: the
// true rank-⌈q·n⌉ order statistic must fall inside the bucket whose
// upper bound Quantile returned (the scheme's exactness guarantee).
func TestQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	workloads := [][]int64{
		{0},
		{5},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	}
	// Log-uniform latencies: the shape histograms exist for.
	big := make([]int64, 20000)
	for i := range big {
		big[i] = int64(1) << rng.Intn(34)
		big[i] += rng.Int63n(big[i] + 1)
	}
	workloads = append(workloads, big)
	for wi, w := range workloads {
		var h Histogram
		for _, v := range w {
			h.RecordNS(v)
		}
		sorted := append([]int64(nil), w...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		var s Snapshot
		h.Load(&s)
		if got, want := s.Total(), uint64(len(w)); got != want {
			t.Fatalf("workload %d: Total = %d, want %d", wi, got, want)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(q * float64(len(w)))
			if float64(rank) < q*float64(len(w)) {
				rank++
			}
			if rank < 1 {
				rank = 1
			}
			oracle := sorted[rank-1]
			got := s.Quantile(q)
			idx := bucketIndex(uint64(got))
			lo, hi := BucketBounds(idx)
			if uint64(oracle) < lo || uint64(oracle) > hi {
				t.Errorf("workload %d q=%v: oracle %d outside bucket [%d, %d] (Quantile=%d)",
					wi, q, oracle, lo, hi, got)
			}
			if int64(hi) != got {
				t.Errorf("workload %d q=%v: Quantile returned %d, not its bucket's upper bound %d", wi, q, got, hi)
			}
		}
	}
	var empty Snapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty snapshot Quantile = %d, want 0", got)
	}
}

// TestConcurrentRecord hammers one histogram from parallel recorders
// while a reader snapshots mid-flight, then verifies the final state is
// exact. Run under -race this is the data-race check for the lock-free
// record path; the mid-flight snapshots additionally assert monotone
// totals (torn cuts may lag, never overshoot or regress).
func TestConcurrentRecord(t *testing.T) {
	const (
		workers = 8
		perW    = 5000
	)
	var h Histogram
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	var snaps []uint64
	reader.Add(1)
	go func() { // concurrent reader, overlaps the whole write phase
		defer reader.Done()
		var s Snapshot
		for {
			select {
			case <-stop:
				return
			default:
			}
			h.Load(&s)
			snaps = append(snaps, s.Total())
			time.Sleep(50 * time.Microsecond)
		}
	}()
	writers.Add(workers)
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perW; i++ {
				h.RecordNS(rng.Int63n(1 << 30))
			}
		}(int64(w))
	}
	writers.Wait()
	close(stop)
	reader.Wait()
	var s Snapshot
	h.Load(&s)
	const want = workers * perW
	if s.Count != want || s.Total() != want {
		t.Fatalf("after quiesce: Count=%d Total=%d, want %d", s.Count, s.Total(), want)
	}
	last := uint64(0)
	for _, n := range snaps {
		if n < last {
			t.Fatalf("snapshot totals regressed: %d after %d", n, last)
		}
		if n > want {
			t.Fatalf("snapshot total %d overshoots %d", n, want)
		}
		last = n
	}
}

// TestWriteProm checks the exposition's invariants: cumulative bucket
// counts, a +Inf bucket equal to _count, and seconds-scaled bounds.
func TestWriteProm(t *testing.T) {
	var h Histogram
	for _, ns := range []int64{1000, 2000, 1_000_000, 50_000_000} {
		h.RecordNS(ns)
	}
	var s Snapshot
	h.Load(&s)
	var b strings.Builder
	WriteHeader(&b, "test_seconds", "histogram", "test histogram")
	s.WriteProm(&b, "test_seconds", `endpoint="/v1/search"`)
	out := b.String()
	for _, want := range []string{
		"# TYPE test_seconds histogram\n",
		`test_seconds_bucket{endpoint="/v1/search",le="+Inf"} 4`,
		`test_seconds_count{endpoint="/v1/search"} 4`,
		`test_seconds_sum{endpoint="/v1/search"} 0.051003`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative: last finite bucket must equal the +Inf bucket count.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var prev uint64
	for _, ln := range lines {
		if !strings.Contains(ln, "_bucket{") {
			continue
		}
		var n uint64
		if _, err := fmtSscan(ln[strings.LastIndexByte(ln, ' ')+1:], &n); err != nil {
			t.Fatalf("parsing %q: %v", ln, err)
		}
		if n < prev {
			t.Fatalf("bucket counts not cumulative: %q after %d", ln, prev)
		}
		prev = n
	}
	if prev != 4 {
		t.Fatalf("final cumulative bucket = %d, want 4", prev)
	}
}

// TestStageAndOpNames pins the wire names the exposition uses.
func TestStageAndOpNames(t *testing.T) {
	want := []string{"prepare", "cut", "prefilter", "score", "scan", "merge"}
	for i := 0; i < NumStages; i++ {
		if Stage(i).String() != want[i] {
			t.Fatalf("stage %d named %q, want %q", i, Stage(i), want[i])
		}
	}
	ops := []string{"add", "delete", "update", "commit"}
	for i := 0; i < NumMutOps; i++ {
		if MutOp(i).String() != ops[i] {
			t.Fatalf("op %d named %q, want %q", i, MutOp(i), ops[i])
		}
	}
}

func fmtSscan(s string, n *uint64) (int, error) {
	var v uint64
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, errNotDigits
		}
		v = v*10 + uint64(s[i]-'0')
	}
	*n = v
	return 1, nil
}

var errNotDigits = errParse("not digits")

type errParse string

func (e errParse) Error() string { return string(e) }
