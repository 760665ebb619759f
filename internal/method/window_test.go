package method

import (
	"fmt"
	"slices"
	"testing"

	"gsim/internal/branch"
	"gsim/internal/db"
)

// TestSizeWindowIsExact holds SizeWindow to the scorers' own bound, entry
// size by entry size: outside the window the intersection score asks for
// exceeds the smaller side — so no entry of that size, not even a sub- or
// super-multiset of the query, can score above 0 — and at both ends of
// the window such an entry does reach the posterior table. A window one
// wider fails the second half, one narrower the first. The window's lo is
// also the least |B∩B| of any pair scoring above 0, the bound the scan's
// branch postings generate candidates from: every size asks for at least
// lo, an entry sharing lo − 1 scores 0 (probed at the window's ends and
// the query's own size), and the entry of size lo inside the query shares
// lo and reaches the table.
func TestSizeWindowIsExact(t *testing.T) {
	fx := newEquivFixture(t)
	const maxQuery, maxEntry = 120, 300
	// One ascending run of distinct branch IDs: its first s are a
	// sub-multiset of a shorter query and a super-multiset of a longer
	// one, the entry of size s that shares the most with either.
	all := make(branch.IDs, maxEntry)
	for i := range all {
		all[i] = uint32(2 * i)
	}
	entries := make([]*db.Entry, maxEntry+1)
	for s := range entries {
		entries[s] = &db.Entry{ID: uint64(s), Branches: all[:s]}
	}

	type variant struct {
		id ID
		w  float64
	}
	variants := []variant{{GBDA, 0}, {GBDAV1, 0}, {Hybrid, 0}}
	for _, w := range []float64{1e-19, 0.3, 0.5, 1, 1e6} {
		variants = append(variants, variant{GBDAV2, w})
	}
	empty := 0
	for _, v := range variants {
		for _, tau := range []int{1, 3, 5} {
			for _, collectAll := range []bool{false, true} {
				info, _ := Lookup(v.id)
				if collectAll && !info.CollectAll {
					continue
				}
				name := fmt.Sprintf("%s w=%g tau=%d collectAll=%v", info.Name, v.w, tau, collectAll)
				sc := info.New()
				opt := Options{Tau: tau, Gamma: 0.9, V1Sample: 50, V2Weight: v.w, CollectAll: collectAll}
				if err := sc.Prepare(fx.mdb, opt); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				need := func(vmax int) int { return needGBD(vmax, tau) }
				if g, ok := sc.(*gbdaScorer); ok {
					need = g.need
				}
				for m := 1; m <= maxQuery; m++ {
					q := &Query{Branches: all[:m]}
					lo, hi := sc.(SizeWindower).SizeWindow(q)
					if lo > hi {
						empty++
					}
					for s := 1; s <= maxEntry; s++ {
						if n := need(max(m, s)); lo <= hi && n < lo {
							t.Fatalf("%s: query %d, entry %d asks for %d shared, below the window's lo %d", name, m, s, n, lo)
						}
						if k := lo - 1; k >= 0 && k <= min(m, s) && (s == lo || s == m || s == hi) {
							// all[:k] plus s−k odd IDs the query never holds.
							b := append(branch.IDs(nil), all[:k]...)
							for i := 0; i < s-k; i++ {
								b = append(b, uint32(2*i+1))
							}
							slices.Sort(b)
							if _, score, err := sc.Score(q, &db.Entry{Branches: b}); err != nil || score != 0 {
								t.Fatalf("%s: query %d, entry %d sharing lo−1 = %d scored (%v, %v)", name, m, s, k, score, err)
							}
						}
						inside := s >= lo && s <= hi
						if !inside {
							if n := need(max(m, s)); n <= min(m, s) {
								t.Fatalf("%s: query %d, entry %d is outside [%d, %d] but need %d fits", name, m, s, lo, hi, n)
							}
							keep, score, err := sc.Score(q, entries[s])
							if err != nil || keep != collectAll || score != 0 {
								t.Fatalf("%s: query %d, entry %d outside [%d, %d] scored (%v, %v, %v)", name, m, s, lo, hi, keep, score, err)
							}
						} else if s == lo || s == hi {
							if _, ok := branch.IntersectAtLeastIDs(q.Branches, entries[s].Branches, need(max(m, s))); !ok {
								t.Fatalf("%s: query %d, entry %d ends [%d, %d] but cannot reach the table", name, m, s, lo, hi)
							}
						}
					}
				}
			}
		}
	}
	if empty == 0 {
		t.Fatal("no configuration produced an empty window")
	}
}
