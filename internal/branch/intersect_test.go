package branch

import (
	"math/rand"
	"sort"
	"testing"
)

// linearIntersect is the reference merge the exact intersection must
// match, kept here so the equivalence tests compare against a fixed
// oracle rather than the code under test.
func linearIntersect(a, b IDs) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// randomIDs draws a sorted multiset of n IDs from a universe of u values;
// small universes force heavy duplication, exercising the multiset
// (min-count) semantics of the intersection.
func randomIDs(rng *rand.Rand, n, u int) IDs {
	out := make(IDs, n)
	for i := range out {
		out[i] = uint32(rng.Intn(u))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestGallopMatchesMerge: for randomized sorted multisets across the full
// range of size skews and duplicate densities, in both argument orders,
// the public intersection must equal the linear-merge oracle.
func TestGallopMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ na, nb, u int }{
		{0, 0, 1}, {0, 50, 8}, {1, 1, 1}, {3, 3, 2},
		{5, 400, 16}, {5, 400, 1000}, {2, 64, 4},
		{1, 10000, 4}, {1, 10000, 100000},
		{100, 100, 16}, {64, 4096, 64},
	}
	for _, s := range shapes {
		for trial := 0; trial < 40; trial++ {
			a := randomIDs(rng, s.na, s.u)
			b := randomIDs(rng, s.nb, s.u)
			want := linearIntersect(a, b)
			if got := IntersectSizeIDs(a, Encode(b)); got != want {
				t.Fatalf("shape %+v trial %d: IntersectSizeIDs = %d, oracle %d\na=%v\nb=%v",
					s, trial, got, want, a, b)
			}
			if got := IntersectSizeIDs(b, Encode(a)); got != want {
				t.Fatalf("shape %+v trial %d: IntersectSizeIDs swapped = %d, oracle %d",
					s, trial, got, want)
			}
		}
	}
}

// TestGallopDirect pins the exact intersection on crafted duplicate-heavy
// cases with hand-computed answers, where a set-based count would over-
// or under-count.
func TestGallopDirect(t *testing.T) {
	cases := []struct {
		small, big IDs
		want       int
	}{
		{IDs{}, IDs{1, 2, 3}, 0},
		{IDs{2}, IDs{}, 0},
		{IDs{5}, IDs{1, 2, 3, 4, 5, 6}, 1},
		{IDs{5, 5, 5}, IDs{5, 5}, 2},                // min-count: 2
		{IDs{1, 3, 9}, IDs{0, 2, 4, 6, 8, 10}, 0},   // interleaved misses
		{IDs{7, 7}, IDs{1, 7, 7, 7, 12}, 2},         // duplicates both sides
		{IDs{0, 100}, IDs{0, 1, 2, 3, 100, 100}, 2}, // match across a long gap
		{IDs{9, 9}, IDs{9}, 1},                      // small larger count
		{IDs{1, 2, 3}, IDs{3, 3, 3, 3}, 1},          // tail match only
	}
	for i, tc := range cases {
		if got := IntersectSizeIDs(tc.small, Encode(tc.big)); got != tc.want {
			t.Errorf("case %d: IntersectSizeIDs(%v, %v) = %d, want %d", i, tc.small, tc.big, got, tc.want)
		}
		if got := IntersectSizeIDs(tc.big, Encode(tc.small)); got != tc.want {
			t.Errorf("case %d: IntersectSizeIDs(%v, %v) = %d, want %d", i, tc.big, tc.small, got, tc.want)
		}
		if got := linearIntersect(tc.small, tc.big); got != tc.want {
			t.Errorf("case %d: oracle disagrees with the hand-computed answer: %d vs %d", i, got, tc.want)
		}
	}
}

// TestGallopKeyPath: the Key-form intersection is the same linear merge
// over strings, so a skewed Key pair must agree with a count-map oracle.
func TestGallopKeyPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	letters := []Key{"a", "b", "c", "d", "e", "f"}
	mk := func(n int) Multiset {
		ms := make(Multiset, n)
		for i := range ms {
			ms[i] = letters[rng.Intn(len(letters))]
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
		return ms
	}
	for trial := 0; trial < 50; trial++ {
		a, b := mk(3), mk(9)
		counts := map[Key]int{}
		for _, k := range b {
			counts[k]++
		}
		want := 0
		for _, k := range a {
			if counts[k] > 0 {
				counts[k]--
				want++
			}
		}
		if got := IntersectSize(a, b); got != want {
			t.Fatalf("trial %d: key-form intersect = %d, want %d", trial, got, want)
		}
	}
}
