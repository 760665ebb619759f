package gsim_test

import (
	"testing"

	"gsim"
)

// subsetOf reports whether a ⊆ b for sorted index slices.
func subsetOf(a, b []int) bool {
	inB := make(map[int]bool, len(b))
	for _, x := range b {
		inB[x] = true
	}
	for _, x := range a {
		if !inB[x] {
			return false
		}
	}
	return true
}

// TestGammaMonotonicity: raising the probability threshold can only shrink
// the GBDA result set — the γ knob of Algorithm 1 is a pure
// precision/recall dial.
func TestGammaMonotonicity(t *testing.T) {
	ds := tinyDataset(t, 40)
	d := openDataset(t, ds)
	for _, qi := range ds.Queries {
		q := gsim.CollectionQuery(ds.Col, qi)
		var prev []int
		for _, gamma := range []float64{0.9, 0.7, 0.5, 0.3, 0.1} {
			res, err := d.Search(q, gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Gamma: gamma})
			if err != nil {
				t.Fatal(err)
			}
			cur := res.Indexes()
			if prev != nil && !subsetOf(prev, cur) {
				t.Fatalf("γ monotonicity violated at γ=%v: %v ⊄ %v", gamma, prev, cur)
			}
			prev = cur
		}
	}
}

// TestTauMonotonicityBaselines: raising τ̂ can only grow a threshold-filter
// result set (the estimates don't depend on τ̂).
func TestTauMonotonicityBaselines(t *testing.T) {
	ds := tinyDataset(t, 41)
	d := openDataset(t, ds)
	q := gsim.CollectionQuery(ds.Col, ds.Queries[0])
	for _, m := range []gsim.Method{gsim.LSAP, gsim.GreedySort, gsim.Seriation, gsim.Exact} {
		var prev []int
		for tau := 1; tau <= 5; tau++ {
			res, err := d.Search(q, gsim.SearchOptions{Method: m, Tau: tau})
			if err != nil {
				t.Fatal(err)
			}
			cur := res.Indexes()
			if prev != nil && !subsetOf(prev, cur) {
				t.Fatalf("%v: τ monotonicity violated at τ=%d: %v ⊄ %v", m, tau, prev, cur)
			}
			prev = cur
		}
	}
}

// TestExactSandwichedByBounds: for every database graph, the LSAP lower
// bound ≤ exact GED ≤ the greedy estimate — the bound sandwich that drives
// the recall/precision guarantees of Section VIII-B.
func TestExactSandwichedByBounds(t *testing.T) {
	ds := tinyDataset(t, 42)
	d := openDataset(t, ds)
	q := gsim.CollectionQuery(ds.Col, ds.Queries[0])
	collect := func(m gsim.Method) map[int]float64 {
		res, err := d.Search(q, gsim.SearchOptions{Method: m, Tau: 5, CollectAll: true})
		if err != nil {
			t.Fatal(err)
		}
		out := map[int]float64{}
		for _, match := range res.Matches {
			out[match.Index] = match.Score
		}
		return out
	}
	lower := collect(gsim.LSAP)
	upper := collect(gsim.GreedySort)
	exact, err := d.Search(q, gsim.SearchOptions{Method: gsim.Exact, Tau: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range exact.Matches {
		if lb := lower[m.Index]; lb > m.Score+1e-9 {
			t.Fatalf("graph %d: LSAP bound %v above exact %v", m.Index, lb, m.Score)
		}
		if ub := upper[m.Index]; ub < m.Score-1e-9 {
			t.Fatalf("graph %d: greedy estimate %v below exact %v", m.Index, ub, m.Score)
		}
	}
	if len(exact.Matches) == 0 {
		t.Fatal("no exact matches to sandwich")
	}
}
