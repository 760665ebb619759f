package branch

import (
	"math/rand"
	"slices"
	"testing"
)

// intersectAtLeastRef is the bounded merge over two uint32 multisets, the
// form stored multisets took before they were coded: the reference
// IntersectAtLeastIDs is held to. It carries the same miss budget per
// side, so a bound that stops early or late differs from it.
func intersectAtLeastRef(a, b IDs, need int) (n int, ok bool) {
	missA, missB := len(a)-need, len(b)-need
	if missA < 0 || missB < 0 {
		return 0, false
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		va, vb := a[i], b[j]
		switch {
		case va == vb:
			n++
			i++
			j++
		case va < vb:
			i++
			if missA--; missA < 0 {
				return 0, false
			}
		default:
			j++
			if missB--; missB < 0 {
				return 0, false
			}
		}
	}
	return n, n >= need
}

// checkAtLeast holds the reference bounded merge to its contract on one
// pair, in both argument orders, for every need from −1 to max(len)+1: ok
// exactly when the unbounded merge counts at least need, and the same
// count when ok. A bound that is off by one in either direction fails at
// the need equal to the true intersection (or one past it). The coded
// kernel must then answer as the reference does (checkCoded).
func checkAtLeast(t *testing.T, a, b IDs) {
	t.Helper()
	want := linearIntersect(a, b)
	for need := -1; need <= max(len(a), len(b))+1; need++ {
		for _, p := range [2][2]IDs{{a, b}, {b, a}} {
			n, ok := intersectAtLeastRef(p[0], p[1], need)
			if ok != (want >= need) {
				t.Fatalf("need %d: ok = %v, merge counts %d\na=%v\nb=%v", need, ok, want, p[0], p[1])
			}
			if ok && n != want {
				t.Fatalf("need %d: n = %d, merge counts %d\na=%v\nb=%v", need, n, want, p[0], p[1])
			}
		}
	}
	checkCoded(t, a, b)
}

// checkCoded holds IntersectAtLeastIDs, which decodes its stored side as
// it walks, to the uint32 reference on one pair, coded either way round,
// at every need from −2 to max(len)+2, and the coding to a round trip.
func checkCoded(t *testing.T, a, b IDs) {
	t.Helper()
	for _, p := range [2][2]IDs{{a, b}, {b, a}} {
		c := Encode(p[1])
		if c.Len() != len(p[1]) {
			t.Fatalf("Len = %d, want %d for %v", c.Len(), len(p[1]), p[1])
		}
		if got := c.AppendTo(nil); !slices.Equal(got, p[1]) {
			t.Fatalf("decoded %v, want %v", got, p[1])
		}
		for need := -2; need <= max(len(a), len(b))+2; need++ {
			wn, wok := intersectAtLeastRef(p[0], p[1], need)
			n, ok := IntersectAtLeastIDs(p[0], c, need)
			if ok != wok || n != wn {
				t.Fatalf("need %d: coded kernel (%d, %v), reference (%d, %v)\nq=%v\ne=%v", need, n, ok, wn, wok, p[0], p[1])
			}
		}
		if got, want := IntersectSizeIDs(p[0], c), linearIntersect(p[0], p[1]); got != want {
			t.Fatalf("IntersectSizeIDs = %d, merge counts %d\nq=%v\ne=%v", got, want, p[0], p[1])
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

// FuzzCodedIntersect holds the coded kernel to the uint32 reference at
// every bound. Each byte is one ID, its value scaled by stride+1 so that
// gaps need one to five uvarint bytes, and the top eight byte values are
// ephemeral; run appends that many more copies of a's first ID to a and
// of b's last to b, for long runs of one ID (gaps of 0).
func FuzzCodedIntersect(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint16(0), uint8(0))
	f.Add([]byte{}, []byte{3, 9}, uint16(0), uint8(0))
	f.Add([]byte{5}, []byte{5}, uint16(0), uint8(200))                    // one ID, long runs
	f.Add([]byte{1, 2, 3, 250}, []byte{2, 3, 4}, uint16(65535), uint8(3)) // multi-byte gaps
	f.Add([]byte{0, 0, 0, 7}, []byte{0, 7, 7, 7}, uint16(300), uint8(64))
	f.Fuzz(func(t *testing.T, a, b []byte, stride uint16, run uint8) {
		decode := func(data []byte, first bool) IDs {
			out := make(IDs, 0, len(data)+int(run))
			for _, c := range data {
				v := uint32(c) * (uint32(stride) + 1)
				if c >= 248 {
					v = 1<<31 + uint32(c-248)
				}
				out = append(out, v)
			}
			slices.Sort(out)
			if len(out) > 0 {
				v := out[len(out)-1]
				if first {
					v = out[0]
				}
				for i := 0; i < int(run); i++ {
					out = append(out, v)
				}
			}
			slices.Sort(out)
			return out
		}
		checkCoded(t, decode(a, true), decode(b, false))
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
