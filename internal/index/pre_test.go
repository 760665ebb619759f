package index

import (
	"math/rand"
	"slices"
	"testing"

	"gsim/internal/branch"
	"gsim/internal/dataset"
	"gsim/internal/db"
	"gsim/internal/graph"
)

// randLabels draws a sorted label multiset of n occurrences over k
// distinct values starting at base — negative bases give ephemeral
// (negative) IDs.
func randLabels(rng *rand.Rand, n, k int, base int32) []graph.ID {
	out := make([]graph.ID, n)
	for i := range out {
		out[i] = graph.ID(base + int32(rng.Intn(k)))
	}
	slices.Sort(out)
	return out
}

// fuzzLabels maps each input byte to the label base + step·int8(byte) in
// wrapping int32 arithmetic, then sorts: repeated bytes give runs, and
// negative bytes and bases give ephemeral (negative) IDs.
func fuzzLabels(base, step int32, raw []byte) []graph.ID {
	out := make([]graph.ID, len(raw))
	for i, c := range raw {
		out[i] = graph.ID(base + step*int32(int8(c)))
	}
	slices.Sort(out)
	return out
}

func randSummary(rng *rand.Rand, maxN, k int, base int32) Summary {
	vl := randLabels(rng, rng.Intn(maxN+1), k, base)
	el := randLabels(rng, rng.Intn(maxN+1), k, base)
	return Summary{V: len(vl), E: len(el), VLabels: vl, ELabels: el}
}

// Sig is the signature word of g, read off the graph itself: the
// reference SpanSig and sigOf are held to.
func Sig(g *graph.Graph) uint64 {
	nv := g.NumVertices()
	sig := sizeSig(nv, g.NumEdges())
	for v := 0; v < nv; v++ {
		sig = addCounter(sig, vbucketShift(g.VertexLabel(v)), 1)
	}
	for u := 0; u < nv; u++ {
		for _, h := range g.Neighbors(u) {
			if int(h.To) > u {
				sig = addCounter(sig, ebucketShift(h.Label), 1)
			}
		}
	}
	return sig
}

// TestSigOfMatchesSig: signing a graph in place gives the word its
// Summary signs to, through the 255 size clamp and counter saturation.
func TestSigOfMatchesSig(t *testing.T) {
	dict := graph.NewLabels()
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		g := randomGraph(rng, dict, 1+rng.Intn(300))
		if got, want := Sig(g), sigOf(Summarize(g)); got != want {
			t.Fatalf("trial %d (|V|=%d, |E|=%d): Sig %#x, Summary form %#x", trial, g.NumVertices(), g.NumEdges(), got, want)
		}
	}
}

// TestSigNeverOverPrunes: the signature quick path may only prune pairs
// the exact size+label bound would prune — sigPrunes(a,b,τ) must imply
// LowerBound > τ. This is the admissibility that keeps the columnar
// prefilter bit-identical to the PairPrunable oracle.
func TestSigNeverOverPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	check := func(trial int, a, b Summary) {
		sa, sb := sigOf(a), sigOf(b)
		lb := a.LowerBound(b)
		for tau := 0; tau < 14; tau++ {
			if sigPrunes(sa, sb, tau) && lb <= tau {
				t.Fatalf("trial %d tau %d: sig pruned but exact bound %d\na=%+v\nb=%+v",
					trial, tau, lb, a, b)
			}
		}
		if sigPrunes(sa, sa, 0) {
			t.Fatalf("trial %d: signature pruned itself at tau 0", trial)
		}
	}
	for trial := 0; trial < 3000; trial++ {
		k := 1 + rng.Intn(12)
		a := randSummary(rng, 40, k, int32(rng.Intn(3)*100))
		b := randSummary(rng, 40, k, int32(rng.Intn(3)*100))
		check(trial, a, b)
	}
	// Few labels over up to ~600 occurrences drive counters to the cap
	// of 127 on one side or both; the other side is a near copy, so the
	// size tier rarely decides and the label bound is what is tested.
	saturatedPairs := 0
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.Intn(4)
		base := int32(rng.Intn(3)*100 - 100)
		a := randSummary(rng, 600, k, base)
		b := nearCopy(rng, a, rng.Intn(16), k, base)
		if saturated(sigOf(a))&saturated(sigOf(b)) != 0 {
			saturatedPairs++
		}
		check(trial, a, b)
	}
	if saturatedPairs == 0 {
		t.Fatal("no trial saturated one bucket on both sides")
	}
	t.Logf("%d of 2000 few-label pairs share a saturated bucket", saturatedPairs)
}

// nearCopy returns s with up to edits random label edits — a
// substitution, insertion or deletion in either multiset — over labels
// drawn from [base, base+k].
func nearCopy(rng *rand.Rand, s Summary, edits, k int, base int32) Summary {
	vl, el := slices.Clone(s.VLabels), slices.Clone(s.ELabels)
	for i := 0; i < edits; i++ {
		side := &vl
		if rng.Intn(2) == 0 {
			side = &el
		}
		l := graph.ID(base + int32(rng.Intn(k+1)))
		switch op := rng.Intn(3); {
		case op == 0 || len(*side) == 0:
			*side = append(*side, l)
		case op == 1:
			(*side)[rng.Intn(len(*side))] = l
		default:
			j := rng.Intn(len(*side))
			*side = append((*side)[:j], (*side)[j+1:]...)
		}
	}
	slices.Sort(vl)
	slices.Sort(el)
	return Summary{V: len(vl), E: len(el), VLabels: vl, ELabels: el}
}

// TestSigSaturationFallback: heavily duplicated labels saturate the
// counters (capped at 127) on both sides; the sketch must then withhold that
// region's label bound rather than overestimate it, while an unsaturated
// region keeps pruning.
func TestSigSaturationFallback(t *testing.T) {
	repeat := func(n int, id graph.ID) []graph.ID {
		out := make([]graph.ID, n)
		for i := range out {
			out[i] = id
		}
		return out
	}
	mk := func(vl, el []graph.ID) Summary {
		return Summary{V: len(vl), E: len(el), VLabels: vl, ELabels: el}
	}
	a, b := mk(repeat(200, 5), nil), mk(repeat(200, 5), nil)
	if saturated(sigOf(a)) == 0 {
		t.Fatal("200 copies of one label left every counter below the cap")
	}
	// Identical graphs: true distance 0, but both counters sit at 127.
	// Any pruning here would be a recall bug.
	for tau := 0; tau < 10; tau++ {
		if sigPrunes(sigOf(a), sigOf(b), tau) {
			t.Fatalf("tau %d: doubly-saturated identical summaries pruned", tau)
		}
	}
	// One side saturated, the other not: min(cap, exact) stays exact, so
	// the sketch may (and here must) still prune at tau 0 via sizes.
	c := mk(repeat(3, 5), nil)
	if !sigPrunes(sigOf(a), sigOf(c), 0) {
		t.Fatal("size gap 197 not pruned at tau 0")
	}

	// Vertex region doubly saturated, edge region not: the vertex bound is
	// withheld (the vertex multisets differ by 9, which 127 vs 127 cannot
	// see) but the edge region still proves its distance of 10.
	x, y := graph.ID(1), graph.ID(2)
	for ebucketShift(y) == ebucketShift(x) {
		y++
	}
	d := mk(repeat(200, 5), repeat(10, x))
	e := mk(append(repeat(191, 5), repeat(9, 6)...), repeat(10, y))
	for tau := 0; tau < 20; tau++ {
		got, want := sigPrunes(sigOf(d), sigOf(e), tau), tau < 10
		if got != want {
			t.Fatalf("tau %d: sigPrunes %v, want %v (edge distance 10 alone)", tau, got, want)
		}
		if got && d.LowerBound(e) <= tau {
			t.Fatalf("tau %d: pruned past the exact bound %d", tau, d.LowerBound(e))
		}
	}
}

// TestSigDecidesLabelTier pins where label-tier prunes are decided. On
// AASD-shaped graphs (~72 vertices over a few dozen labels) the signature
// word alone must prove nearly every prune whose exact label bound exceeds
// τ̂, so View.Tier's span walk runs only for the pairs the sketch cannot
// settle. A layout that stays admissible but saturates again passes every
// equivalence suite and silently loses the speed-up; this count does not.
func TestSigDecidesLabelTier(t *testing.T) {
	cfg, err := dataset.Profile("aasd", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 1
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := ds.Col.Entries()
	stored := make([]*db.Entry, len(ds.DBGraphs))
	for slot, idx := range ds.DBGraphs {
		stored[slot] = entries[idx]
	}
	v := ViewOf(stored)
	const tau = 3
	queries := ds.Queries[:100]
	labelTier, undecided := 0, 0
	for _, qi := range queries {
		qg := entries[qi].G.Unpack()
		qp := PrepareQuery(qg)
		qids := ds.Col.BranchDict().ResolveMultiset(branch.MultisetOf(qg))
		for slot, idx := range ds.DBGraphs {
			if v.Tier(&qp, qids, entries[idx], slot, tau) != TierLabel {
				continue
			}
			labelTier++
			if !sigPrunes(qp.Sig, v.Sig[slot], tau) {
				undecided++
			}
		}
	}
	if labelTier < 1000 {
		t.Fatalf("only %d label-tier prunes: the sample does not exercise the tier", labelTier)
	}
	if 50*undecided > labelTier {
		t.Fatalf("signature left %d of %d label-tier prunes (%.1f%%) to the span walk, budget 2%%",
			undecided, labelTier, 100*float64(undecided)/float64(labelTier))
	}
	t.Logf("%d queries × %d graphs: %d label-tier prunes, %d left to the span walk",
		len(queries), len(ds.DBGraphs), labelTier, undecided)
}

// oracleTier is the layered classification by the oracle's definitions:
// size if max(|ΔV|, |ΔE|) > τ̂, else label if Summary.LowerBound > τ̂,
// else branch if PairLowerBound > τ̂.
func oracleTier(q Summary, qBranches branch.IDs, s Summary, e *db.Entry, tau int) Tier {
	switch {
	case max(abs(q.V-s.V), abs(q.E-s.E)) > tau:
		return TierSize
	case q.LowerBound(s) > tau:
		return TierLabel
	case PairLowerBound(q, qBranches, s, e) > tau:
		return TierBranch
	}
	return TierNone
}

// TestFlatPrunableMatchesLegacy: over random stored graphs and random
// queries (with ephemeral branch IDs), Flat.Prunable must agree with
// PairPrunable at every position and threshold, and View.Tier with the
// oracle's layered classification — the branch tier included. The graphs
// are split over three views of unequal size, the middle one empty, so a
// wrong lookup of a position's view cannot pass.
func TestFlatPrunableMatchesLegacy(t *testing.T) {
	dict := graph.NewLabels()
	rng := rand.New(rand.NewSource(19))
	col := db.New("t")
	for i := 0; i < 120; i++ {
		col.Add(randomGraph(rng, dict, 2+rng.Intn(10)))
	}
	entries := col.Entries()
	sums := make([]Summary, len(entries))
	for i, e := range entries {
		sums[i] = Summarize(e.G.Unpack())
	}
	cuts := []int{0, 70, 70, len(entries)} // view i covers entries[cuts[i]:cuts[i+1]]
	views := make([]View, len(cuts)-1)
	for i := range views {
		views[i] = ViewOf(entries[cuts[i]:cuts[i+1]])
	}
	f := FlattenViews(views)
	branchPruned := 0
	for qt := 0; qt < 25; qt++ {
		qg := randomGraph(rng, dict, 2+rng.Intn(12))
		qs := Summarize(qg)
		qp := PrepareQuery(qg)
		qids := col.BranchDict().ResolveMultiset(branch.MultisetOf(qg))
		for tau := 0; tau < 8; tau++ {
			for vi, v := range views {
				for slot := 0; slot < v.Len(); slot++ {
					pos := cuts[vi] + slot
					e := entries[pos]
					want := PairPrunable(qs, qids, sums[pos], e, tau)
					got := f.Prunable(&qp, qids, e, pos, tau)
					if got != want {
						t.Fatalf("query %d tau %d pos %d: flat %v, legacy %v", qt, tau, pos, got, want)
					}
					wantTier := oracleTier(qs, qids, sums[pos], e, tau)
					if tier := v.Tier(&qp, qids, e, slot, tau); tier != wantTier {
						t.Fatalf("query %d tau %d pos %d: tier %d, oracle %d", qt, tau, pos, tier, wantTier)
					}
					if wantTier == TierBranch {
						branchPruned++
					}
				}
			}
		}
	}
	if branchPruned == 0 {
		t.Fatal("no pair reached the branch tier: its arm went unchecked")
	}
	t.Logf("%d branch-tier prunes", branchPruned)
}
