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
// distinct values starting at base — negative bases exercise the
// ephemeral-query wraparound of the delta codec.
func randLabels(rng *rand.Rand, n, k int, base int32) []graph.ID {
	out := make([]graph.ID, n)
	for i := range out {
		out[i] = graph.ID(base + int32(rng.Intn(k)))
	}
	slices.Sort(out)
	return out
}

func randSummary(rng *rand.Rand, maxN, k int, base int32) Summary {
	vl := randLabels(rng, rng.Intn(maxN+1), k, base)
	el := randLabels(rng, rng.Intn(maxN+1), k, base)
	return Summary{V: len(vl), E: len(el), VLabels: vl, ELabels: el}
}

// TestSpanRoundTrip: decodeSpan inverts appendSpan across duplicate-heavy,
// sparse, negative-ID and empty multisets, and spanEnd agrees with the
// decoder on the span extent.
func TestSpanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct {
		n, k int
		base int32
	}{
		{0, 1, 0}, {1, 1, 0}, {50, 2, 0}, {50, 1000, 0},
		{200, 3, 500}, {30, 4, -7}, {8, 2, -(1 << 30)},
	}
	for _, s := range shapes {
		for trial := 0; trial < 20; trial++ {
			labels := randLabels(rng, s.n, s.k, s.base)
			arena := appendSpan([]byte{0xAA}, labels) // nonzero start offset
			got, end := decodeSpan(arena, 1, len(labels))
			if !slices.Equal(got, labels) {
				t.Fatalf("shape %+v: round-trip mismatch\nwant %v\ngot  %v", s, labels, got)
			}
			if end != uint32(len(arena)) {
				t.Fatalf("shape %+v: decode end %d, arena len %d", s, end, len(arena))
			}
			if se := spanEnd(arena, 1, len(labels)); se != end {
				t.Fatalf("shape %+v: spanEnd %d, decode end %d", s, se, end)
			}
		}
	}
}

// TestSpanDistanceMatchesOracle: the streaming arena merge equals
// multisetDistance over the decoded labels, including queries carrying
// negative ephemeral labels that sort before everything stored.
func TestSpanDistanceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		stored := randLabels(rng, rng.Intn(60), 1+rng.Intn(8), 0)
		qbase := int32(0)
		if trial%3 == 0 {
			qbase = -3 // mix ephemeral negatives into the query side
		}
		q := randLabels(rng, rng.Intn(60), 1+rng.Intn(8), qbase)
		arena := appendSpan(nil, stored)
		dist, end := spanDistance(q, arena, 0, len(stored))
		if want := multisetDistance(q, stored); dist != want {
			t.Fatalf("trial %d: spanDistance %d, oracle %d\nq=%v\nstored=%v", trial, dist, want, q, stored)
		}
		if end != uint32(len(arena)) {
			t.Fatalf("trial %d: end %d, arena %d", trial, end, len(arena))
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
// τ̂, so View.Tier's arena walk runs only for the pairs the sketch cannot
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
	st := NewStore(len(ds.DBGraphs))
	for _, idx := range ds.DBGraphs {
		st.Append(Summarize(entries[idx].G))
	}
	v := st.View()
	const tau = 3
	queries := ds.Queries[:100]
	labelTier, undecided := 0, 0
	for _, qi := range queries {
		qg := entries[qi].G
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
		t.Fatalf("signature left %d of %d label-tier prunes (%.1f%%) to the arena walk, budget 2%%",
			undecided, labelTier, 100*float64(undecided)/float64(labelTier))
	}
	t.Logf("%d queries × %d graphs: %d label-tier prunes, %d left to the arena walk",
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
// are split over three stores of unequal size, the middle one empty, so a
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
		sums[i] = Summarize(e.G)
	}
	cuts := []int{0, 70, 70, len(entries)} // store i holds entries[cuts[i]:cuts[i+1]]
	views := make([]View, len(cuts)-1)
	for i := range views {
		st := NewStore(cuts[i+1] - cuts[i])
		for _, sum := range sums[cuts[i]:cuts[i+1]] {
			st.Append(sum)
		}
		views[i] = st.View()
	}
	f := FlattenViews(views)
	branchPruned := 0
	for qt := 0; qt < 25; qt++ {
		qg := randomGraph(rng, dict, 2+rng.Intn(12))
		qs := Summarize(qg)
		qp := NewQueryPre(qs)
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

// TestStoreMutationModel: a Store driven through random append / swap-
// remove / replace / compaction must decode, slot for slot, to the same
// summaries as a plain []Summary model driven through the same ops, and
// old Views must keep decoding to their snapshot even as the store mutates
// past them.
func TestStoreMutationModel(t *testing.T) {
	dict := graph.NewLabels()
	rng := rand.New(rand.NewSource(23))
	st := NewStore(0)
	var model []Summary

	check := func(step int) {
		v := st.View()
		if v.Len() != len(model) {
			t.Fatalf("step %d: store %d entries, model %d", step, v.Len(), len(model))
		}
		for i := range model {
			got := v.SummaryOf(i)
			if got.V != model[i].V || got.E != model[i].E ||
				!slices.Equal(got.VLabels, model[i].VLabels) ||
				!slices.Equal(got.ELabels, model[i].ELabels) {
				t.Fatalf("step %d slot %d: decoded %+v, model %+v", step, i, got, model[i])
			}
		}
	}

	type snap struct {
		v     View
		model []Summary
	}
	var snaps []snap

	for step := 0; step < 600; step++ {
		op := rng.Intn(10)
		switch {
		case op < 5 || len(model) == 0: // append-biased: arena must grow
			s := Summarize(randomGraph(rng, dict, 1+rng.Intn(9)))
			st.Append(s)
			model = append(model, s)
		case op < 7:
			slot := rng.Intn(len(model))
			st.RemoveAt(slot)
			n := len(model)
			if slot != n-1 {
				model[slot] = model[n-1]
			}
			model = model[:n-1]
		case op < 9:
			slot := rng.Intn(len(model))
			s := Summarize(randomGraph(rng, dict, 1+rng.Intn(9)))
			st.ReplaceAt(slot, s)
			model[slot] = s
		default:
			st.Compact()
		}
		st.MaybeCompact()
		if step%37 == 0 {
			check(step)
			snaps = append(snaps, snap{st.View(), slices.Clone(model)})
		}
	}
	st.Compact()
	check(-1)

	// Every historical snapshot still decodes to its own state.
	for si, sn := range snaps {
		if sn.v.Len() != len(sn.model) {
			t.Fatalf("snapshot %d: %d entries, model %d", si, sn.v.Len(), len(sn.model))
		}
		for i := range sn.model {
			got := sn.v.SummaryOf(i)
			if !slices.Equal(got.VLabels, sn.model[i].VLabels) ||
				!slices.Equal(got.ELabels, sn.model[i].ELabels) {
				t.Fatalf("snapshot %d slot %d: decoded %+v, want %+v", si, i, got, sn.model[i])
			}
		}
	}

	mem := st.Mem()
	if mem.DeadBytes != 0 {
		t.Fatalf("dead bytes %d after final Compact", mem.DeadBytes)
	}
	if mem.Entries != len(model) {
		t.Fatalf("mem entries %d, model %d", mem.Entries, len(model))
	}
}

// TestCompactionThreshold: MaybeCompact fires only past the dead-space
// floor and ratio, and reclaims the arena when it does.
func TestCompactionThreshold(t *testing.T) {
	st := NewStore(0)
	big := make([]graph.ID, 5000) // ~distinct labels: large spans
	for i := range big {
		big[i] = graph.ID(i * 7)
	}
	s := Summary{V: len(big), E: 0, VLabels: big}
	st.Append(s)
	st.Append(s)
	if st.MaybeCompact() {
		t.Fatal("compacted with zero dead space")
	}
	st.RemoveAt(1)
	if st.dead == 0 {
		t.Fatal("remove accounted no dead bytes")
	}
	if !st.MaybeCompact() {
		t.Fatalf("did not compact with dead=%d arena=%d", st.dead, len(st.arena))
	}
	if st.dead != 0 || st.compactions != 1 {
		t.Fatalf("post-compact dead=%d compactions=%d", st.dead, st.compactions)
	}
	got := st.View().SummaryOf(0)
	if !slices.Equal(got.VLabels, big) {
		t.Fatal("survivor corrupted by compaction")
	}
}
