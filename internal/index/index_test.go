package index

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gsim/internal/branch"
	"gsim/internal/dataset"
	"gsim/internal/db"
	"gsim/internal/ged"
	"gsim/internal/graph"
)

func randomGraph(rng *rand.Rand, dict *graph.Labels, n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(dict.Intern(string(rune('A' + rng.Intn(3)))))
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, dict.Intern(string(rune('a'+rng.Intn(3)))))
		}
	}
	return g
}

// TestQuickLowerBoundIsAdmissible: the composite bound never exceeds the
// exact GED — the property that makes pruning lossless.
func TestQuickLowerBoundIsAdmissible(t *testing.T) {
	dict := graph.NewLabels()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomGraph(rng, dict, 2+rng.Intn(5))
		b := randomGraph(rng, dict, 2+rng.Intn(5))
		exact, err := ged.Exact(a, b)
		if err != nil {
			return false
		}
		sa, sb := Summarize(a), Summarize(b)
		if sa.LowerBound(sb) > exact {
			return false
		}
		// Composite with the branch layer, both directions.
		col := db.New("t")
		col.Add(b)
		return PairLowerBound(sa, col.BranchDict().ResolveMultiset(branch.MultisetOf(a)), sb, col.Entry(0)) <= exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerBoundSymmetricZeroOnSelf(t *testing.T) {
	dict := graph.NewLabels()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		a := randomGraph(rng, dict, 2+rng.Intn(8))
		b := randomGraph(rng, dict, 2+rng.Intn(8))
		sa, sb := Summarize(a), Summarize(b)
		if sa.LowerBound(sb) != sb.LowerBound(sa) {
			t.Fatal("summary bound asymmetric")
		}
		if got := sa.LowerBound(Summarize(a.Clone())); got != 0 {
			t.Fatalf("self bound = %d", got)
		}
	}
}

func TestSizeFilterDominatesOnSizeGap(t *testing.T) {
	dict := graph.NewLabels()
	small := graph.New(2)
	small.AddVertex(dict.Intern("A"))
	small.AddVertex(dict.Intern("A"))
	big := graph.New(9)
	for i := 0; i < 9; i++ {
		big.AddVertex(dict.Intern("A"))
	}
	if got := Summarize(small).LowerBound(Summarize(big)); got != 7 {
		t.Fatalf("size bound = %d, want 7", got)
	}
}

// TestPruningIsLossless runs the layered filter over a certified dataset
// through a columnar View: no true answer may be pruned, the per-tier
// counts must partition the store, and cross-cluster graphs must be
// pruned when τ̂ is below the guard.
func TestPruningIsLossless(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{
		Name: "ix", NumGraphs: 40, MinV: 8, MaxV: 11, ExtraPerV: 0.3,
		ScaleFree: true, LV: 30, LE: 3, PoolSize: 5, ClusterSize: 10,
		ModSlots: 4, GuardTau: 5, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	entries := ds.Col.Entries()
	v := ViewOf(entries)
	if v.Len() != ds.Col.Len() {
		t.Fatalf("view covers %d of %d", v.Len(), ds.Col.Len())
	}
	const tau = 3
	for _, qi := range ds.Queries {
		q := ds.Col.Entry(qi)
		qp, qb := PrepareQuery(q.G.Unpack()), q.Branches.AppendTo(nil)
		var n [TierBranch + 1]int
		for i, e := range entries {
			tier := v.Tier(&qp, qb, e, i, tau)
			n[tier]++
			if d, known := ds.KnownGED(qi, i); i != qi && known && d <= tau && tier != TierNone {
				t.Fatalf("true answer (%d,%d) GED=%d pruned by tier %d at tau=%d", qi, i, d, tier, tau)
			}
		}
		if n[TierSize]+n[TierLabel]+n[TierBranch]+n[TierNone] != ds.Col.Len() {
			t.Fatalf("tier counts do not partition: %v", n)
		}
		// Cross-cluster graphs (GED > 5 > tau) must mostly be pruned by
		// the label layer given the generator's construction.
		intra := 0
		for i := 0; i < ds.Col.Len(); i++ {
			if ds.ClusterOf[i] == ds.ClusterOf[qi] {
				intra++
			}
		}
		if n[TierNone] > intra {
			t.Fatalf("survivors %d exceed cluster size %d — filter too weak", n[TierNone], intra)
		}
	}
}

func TestSummaryMultisetsSorted(t *testing.T) {
	dict := graph.NewLabels()
	rng := rand.New(rand.NewSource(6))
	g := randomGraph(rng, dict, 12)
	s := Summarize(g)
	for i := 1; i < len(s.VLabels); i++ {
		if s.VLabels[i-1] > s.VLabels[i] {
			t.Fatal("vertex labels unsorted")
		}
	}
	for i := 1; i < len(s.ELabels); i++ {
		if s.ELabels[i-1] > s.ELabels[i] {
			t.Fatal("edge labels unsorted")
		}
	}
	if s.V != g.NumVertices() || s.E != g.NumEdges() || len(s.ELabels) != g.NumEdges() {
		t.Fatal("summary counts wrong")
	}
}
