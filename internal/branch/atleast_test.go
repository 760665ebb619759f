package branch

import (
	"math/rand"
	"slices"
	"testing"
)

// checkAtLeast holds IntersectAtLeastIDs to its contract on one pair, in
// both argument orders, for every need from −1 to max(len)+1: ok exactly
// when the unbounded merge counts at least need, and the same count when
// ok. A bound that is off by one in either direction fails at the need
// equal to the true intersection (or one past it).
func checkAtLeast(t *testing.T, a, b IDs) {
	t.Helper()
	want := intersectMerge(a, b)
	for need := -1; need <= max(len(a), len(b))+1; need++ {
		for _, p := range [2][2]IDs{{a, b}, {b, a}} {
			n, ok := IntersectAtLeastIDs(p[0], p[1], need)
			if ok != (want >= need) {
				t.Fatalf("need %d: ok = %v, merge counts %d\na=%v\nb=%v", need, ok, want, p[0], p[1])
			}
			if ok && n != want {
				t.Fatalf("need %d: n = %d, merge counts %d\na=%v\nb=%v", need, n, want, p[0], p[1])
			}
		}
	}
}

// fuzzIDs decodes one fuzz argument into a sorted ID multiset: one element
// per byte from a 120-value universe (so duplicates are the norm), with
// the top eight byte values mapped to the ephemeral range at 2³¹ where a
// query's unseen branches live.
func fuzzIDs(data []byte) IDs {
	out := make(IDs, len(data))
	for i, c := range data {
		out[i] = uint32(c >> 1)
		if c >= 240 {
			out[i] = 1<<31 + uint32(c-240)
		}
	}
	slices.Sort(out)
	return out
}

// FuzzIntersectAtLeast checks the bounded merge against the plain merge
// on arbitrary sorted multisets; the seeds below and under
// testdata/fuzz/FuzzIntersectAtLeast run on every `go test`.
func FuzzIntersectAtLeast(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{}, []byte{2, 4, 6})
	f.Add([]byte{2, 4, 6}, []byte{2, 4, 6})
	f.Add([]byte{2, 2, 2, 8}, []byte{2, 2, 8, 8, 8})         // duplicates: min(count) semantics
	f.Add([]byte{2, 4, 240, 241}, []byte{2, 4, 6, 8})        // ephemeral IDs match nothing stored
	f.Add([]byte{240, 240, 250}, []byte{240, 250, 250, 255}) // …but do match each other
	f.Add([]byte{0, 20, 40, 60, 80}, []byte{10, 30, 50, 70}) // disjoint, interleaved
	f.Add([]byte{100}, []byte{2, 4, 6, 8, 10, 12, 14, 100})  // skewed, match at the tail
	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkAtLeast(t, fuzzIDs(a), fuzzIDs(b))
	})
}

// TestIntersectAtLeastRandom runs the same check over seeded random
// multisets across size skews and universe densities, so the plain test
// run covers shapes the fuzz seeds do not.
func TestIntersectAtLeastRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ na, nb, u int }{
		{0, 0, 1}, {0, 9, 4}, {1, 1, 1}, {3, 3, 2}, {8, 8, 4},
		{20, 23, 30}, {20, 23, 400}, {5, 60, 16}, {40, 40, 40}, {93, 90, 200},
	}
	for _, s := range shapes {
		for trial := 0; trial < 25; trial++ {
			a, b := randomIDs(rng, s.na, s.u), randomIDs(rng, s.nb, s.u)
			if trial%5 == 0 && len(a) > 0 {
				a[len(a)-1] = 1 << 31 // an unseen query branch
			}
			checkAtLeast(t, a, b)
		}
	}
}
