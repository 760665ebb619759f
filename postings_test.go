package gsim

import (
	"reflect"
	"testing"

	"gsim/internal/branch"
	"gsim/internal/dataset"
	"gsim/internal/db"
	"gsim/internal/index"
	"gsim/internal/method"
)

// TestSearchVisitsFewPositions counts, on the aasd profile at half its
// size, the positions a GBDA search at τ̂ = 3 reads: the candidates the
// shards' branch postings name inside the size bound. The counts are
// exact — the database stores the dataset's base graphs, whose postings
// are built once, at construction — so the bounds hold on any machine
// (1.5% and 0.35% at seed 104; the cluster around a query is a larger
// share of a smaller corpus, so the shares fall with scale). Every answer
// is checked against a brute-force scan: the scorer over every stored
// graph, and index.PairPrunable for what the prefilter drops.
func TestSearchVisitsFewPositions(t *testing.T) {
	const tau, queries = 3, 40
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
		sums[k] = index.Summarize(entries[k].G)
	}
	info, _ := method.Lookup(method.GBDA)
	scorer := info.New()
	opt := SearchOptions{Method: GBDA, Tau: tau}
	mdb := &method.DB{ActiveN: n, Ordered: func() []*db.Entry { return entries }, Sizes: d.store.DistinctSizes,
		WS: d.ws, GBDPrior: d.gbdPrior, TauMax: d.tauMax}
	if err := scorer.Prepare(mdb, opt.withDefaults().methodOptions()); err != nil {
		t.Fatal(err)
	}

	var visitedPlain, visitedPre int
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
		visitedPlain += plain.Stages.Visited
		visitedPre += pre.Stages.Visited

		qids := d.store.BranchDict().ResolveMultiset(branch.MultisetOf(q.g))
		mq := &method.Query{G: q.g, Branches: qids}
		qsum := index.Summarize(q.g)
		wantPlain, wantPre, pruned := []Match{}, []Match{}, 0
		for k, e := range entries {
			prunable := index.PairPrunable(qsum, qids, sums[k], e, tau)
			if prunable {
				pruned++
			}
			keep, score, err := scorer.Score(mq, e)
			if err != nil {
				t.Fatal(err)
			}
			if !keep {
				continue
			}
			m := Match{Index: int(e.ID), Name: e.G.Name, Score: score}
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
	}
	plainShare := float64(visitedPlain) / float64(queries*n)
	preShare := float64(visitedPre) / float64(queries*n)
	t.Logf("%d graphs: mean visited %.1f unfiltered (%.2f%%), %.1f prefiltered (%.2f%%)",
		n, float64(visitedPlain)/queries, 100*plainShare, float64(visitedPre)/queries, 100*preShare)
	if plainShare > 0.02 {
		t.Errorf("an unfiltered search visits %.2f%% of positions, budget 2%%", 100*plainShare)
	}
	if preShare > 0.005 {
		t.Errorf("a prefiltered search visits %.2f%% of positions, budget 0.5%%", 100*preShare)
	}
}
