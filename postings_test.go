package gsim

import (
	"reflect"
	"sort"
	"testing"

	"gsim/internal/branch"
	"gsim/internal/dataset"
	"gsim/internal/db"
	"gsim/internal/index"
	"gsim/internal/method"
)

// TestSearchVisitsFewPositions counts, on the aasd profile at half its
// size, the positions a GBDA search and a top-10 at τ̂ = 3 read: the
// candidates the shards' branch postings name inside the size bound. The
// counts are exact — the database stores the dataset's base graphs, whose
// postings are built once, at construction — so the bounds hold on any
// machine (0.52% unfiltered and top-K, 0.35% prefiltered at seed 104; the
// cluster around a query is a larger share of a smaller corpus, so the
// shares fall with scale). Every answer is checked against a brute-force
// scan: the scorer over every stored graph, ranked for the top-K, and
// index.PairPrunable for what the prefilter drops.
func TestSearchVisitsFewPositions(t *testing.T) {
	const tau, queries, topK = 3, 40, 10
	cfg, err := dataset.Profile("aasd", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := FromCollection(ds.Col, ds.DBGraphs)
	if err := d.BuildPriors(OfflineConfig{TauMax: tau, SamplePairs: 4000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	n := len(ds.DBGraphs)
	entries := make([]*db.Entry, n)
	sums := make([]index.Summary, n)
	for k, id := range ds.DBGraphs {
		entries[k] = ds.Col.Entry(id)
		sums[k] = index.Summarize(entries[k].G.Unpack())
	}
	info, _ := method.Lookup(method.GBDA)
	scorer := info.New()
	opt := SearchOptions{Method: GBDA, Tau: tau}
	pri := d.offline()
	mdb := &method.DB{ActiveN: n, Ordered: func() []*db.Entry { return entries }, Sizes: d.store.DistinctSizes,
		WS: pri.ws, GBDPrior: pri.gbdPrior, TauMax: pri.tauMax}
	if err := scorer.Prepare(mdb, opt.withDefaults().methodOptions()); err != nil {
		t.Fatal(err)
	}

	var visitedPlain, visitedPre, visitedTop int
	for _, qi := range ds.Queries[:queries] {
		q := CollectionQuery(ds.Col, qi)
		plain, err := d.Search(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := d.Search(q, SearchOptions{Method: GBDA, Tau: tau, Prefilter: true})
		if err != nil {
			t.Fatal(err)
		}
		top, err := d.SearchTopK(q, TopKOptions{Method: GBDA, K: topK, Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		visitedPlain += plain.Stages.Visited
		visitedPre += pre.Stages.Visited
		visitedTop += top.Stages.Visited

		qids := d.store.BranchDict().ResolveMultiset(branch.MultisetOf(q.g))
		mq := &method.Query{G: q.g, Branches: qids}
		qsum := index.Summarize(q.g)
		wantPlain, wantPre, ranked, pruned := []Match{}, []Match{}, []Match{}, 0
		for k, e := range entries {
			prunable := index.PairPrunable(qsum, qids, sums[k], e, tau)
			if prunable {
				pruned++
			}
			keep, score, err := scorer.Score(mq, e)
			if err != nil {
				t.Fatal(err)
			}
			m := Match{Index: int(e.ID), Name: e.G.Name, Score: score}
			ranked = append(ranked, m)
			if !keep {
				continue
			}
			wantPlain = append(wantPlain, m)
			if !prunable {
				wantPre = append(wantPre, m)
			}
		}
		if plain.Scanned != n || !reflect.DeepEqual(plain.Matches, wantPlain) {
			t.Fatalf("query %d: plain search scanned %d of %d and kept\n%v\nbrute force kept\n%v", qi, plain.Scanned, n, plain.Matches, wantPlain)
		}
		if pre.Scanned != n || pre.Stages.Pruned != pruned || !reflect.DeepEqual(pre.Matches, wantPre) {
			t.Fatalf("query %d: prefiltered search scanned %d of %d, pruned %d (brute force %d) and kept\n%v\nbrute force kept\n%v",
				qi, pre.Scanned, n, pre.Stages.Pruned, pruned, pre.Matches, wantPre)
		}
		sort.SliceStable(ranked, func(a, b int) bool { return ranked[a].Score > ranked[b].Score }) // entries are in ID order
		if top.Scanned != n || !reflect.DeepEqual(top.Matches, ranked[:topK]) {
			t.Fatalf("query %d: top-%d scanned %d of %d and ranked\n%v\nbrute force ranked\n%v", qi, topK, top.Scanned, n, top.Matches, ranked[:topK])
		}
	}
	plainShare := float64(visitedPlain) / float64(queries*n)
	preShare := float64(visitedPre) / float64(queries*n)
	topShare := float64(visitedTop) / float64(queries*n)
	t.Logf("%d graphs: mean visited %.1f unfiltered (%.2f%%), %.1f prefiltered (%.2f%%), %.1f top-%d (%.2f%%)",
		n, float64(visitedPlain)/queries, 100*plainShare, float64(visitedPre)/queries, 100*preShare,
		float64(visitedTop)/queries, topK, 100*topShare)
	if plainShare > 0.0075 {
		t.Errorf("an unfiltered search visits %.2f%% of positions, budget 0.75%%", 100*plainShare)
	}
	if topShare > 0.0075 {
		t.Errorf("a top-%d search visits %.2f%% of positions, budget 0.75%%", topK, 100*topShare)
	}
	if preShare > 0.005 {
		t.Errorf("a prefiltered search visits %.2f%% of positions, budget 0.5%%", 100*preShare)
	}
}
