package index

import "testing"

// FuzzSigPrunes builds two summaries from the input — vertex and edge
// label multisets through fuzzLabels, so negative bases and steps give
// ephemeral (negative) IDs and repeated bytes give the long runs that
// saturate counters — and checks the signature's admissibility:
// sigPrunes(a, b, τ) implies a.LowerBound(b) > τ for every τ in [0, 15],
// and no signature prunes itself at τ = 0. The seeds under
// testdata/fuzz/FuzzSigPrunes are an empty pair, one label ×200, a pair
// with both counter regions saturated, and sizes past the 255 clamp.
func FuzzSigPrunes(f *testing.F) {
	f.Fuzz(func(t *testing.T, base, step int32, va, ea, vb, eb []byte) {
		sum := func(v, e []byte) Summary {
			vl, el := fuzzLabels(base, step, v), fuzzLabels(base, step, e)
			return Summary{V: len(vl), E: len(el), VLabels: vl, ELabels: el}
		}
		a, b := sum(va, ea), sum(vb, eb)
		sa, sb := sigOf(a), sigOf(b)
		lb := a.LowerBound(b)
		for tau := 0; tau <= 15; tau++ {
			if sigPrunes(sa, sb, tau) && lb <= tau {
				t.Fatalf("tau %d: signature pruned, exact bound %d\na=%+v\nb=%+v", tau, lb, a, b)
			}
		}
		if sigPrunes(sa, sa, 0) {
			t.Fatalf("signature pruned itself at tau 0: %+v", a)
		}
	})
}
