package gsim_test

import (
	"bytes"
	"reflect"
	"testing"

	"gsim"
	"gsim/internal/metrics"
)

func TestSearchTopKOrdersByPosterior(t *testing.T) {
	ds := tinyDataset(t, 20)
	d := openDataset(t, ds)
	q := gsim.CollectionQuery(ds.Col, ds.Queries[0])
	res, err := d.SearchTopK(q, gsim.TopKOptions{Method: gsim.GBDA, K: 5, Tau: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 5 {
		t.Fatalf("got %d matches, want 5", len(res.Matches))
	}
	for i := 1; i < len(res.Matches); i++ {
		if res.Matches[i-1].Score < res.Matches[i].Score {
			t.Fatalf("posterior order violated at %d: %v", i, res.Matches)
		}
	}
	// The top results must be cluster-mates of the query (the only graphs
	// with small GED).
	top := res.Matches[0]
	if d, known := ds.KnownGED(ds.Queries[0], top.Index); !known {
		t.Fatalf("top-1 %q is cross-cluster", top.Name)
	} else if d > 4 {
		t.Fatalf("top-1 has GED %d", d)
	}
}

func TestSearchTopKBaselineAscending(t *testing.T) {
	ds := tinyDataset(t, 21)
	d := openDataset(t, ds)
	q := gsim.CollectionQuery(ds.Col, ds.Queries[0])
	res, err := d.SearchTopK(q, gsim.TopKOptions{Method: gsim.GreedySort, K: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Matches); i++ {
		if res.Matches[i-1].Score > res.Matches[i].Score {
			t.Fatalf("distance order violated: %v", res.Matches)
		}
	}
}

func TestSearchTopKRejectsExact(t *testing.T) {
	ds := tinyDataset(t, 22)
	d := openDataset(t, ds)
	q := gsim.CollectionQuery(ds.Col, ds.Queries[0])
	if _, err := d.SearchTopK(q, gsim.TopKOptions{Method: gsim.Exact}); err == nil {
		t.Fatal("Exact accepted by SearchTopK")
	}
	if _, err := d.SearchTopK(q, gsim.TopKOptions{Method: gsim.Hybrid}); err == nil {
		t.Fatal("Hybrid accepted by SearchTopK")
	}
}

func TestSearchTopKKLargerThanDB(t *testing.T) {
	ds := tinyDataset(t, 23)
	d := openDataset(t, ds)
	q := gsim.CollectionQuery(ds.Col, ds.Queries[0])
	res, err := d.SearchTopK(q, gsim.TopKOptions{Method: gsim.GBDA, K: 10_000, Tau: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != len(ds.DBGraphs) {
		t.Fatalf("got %d matches, want the whole database %d", len(res.Matches), len(ds.DBGraphs))
	}
}

func TestPriorsSaveLoadRoundTrip(t *testing.T) {
	ds := tinyDataset(t, 24)
	d := openDataset(t, ds)
	var buf bytes.Buffer
	if err := d.SavePriors(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh database over the same collection, priors restored from the
	// snapshot, must return identical search results.
	d2 := gsim.FromCollection(ds.Col, ds.DBGraphs)
	if err := d2.LoadPriors(&buf); err != nil {
		t.Fatal(err)
	}
	if d2.TauMax() != d.TauMax() {
		t.Fatalf("TauMax %d != %d", d2.TauMax(), d.TauMax())
	}
	q := gsim.CollectionQuery(ds.Col, ds.Queries[0])
	opt := gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Gamma: 0.6}
	r1, err := d.Search(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d2.Search(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Indexes(), r2.Indexes()) {
		t.Fatalf("results diverge after prior reload: %v vs %v", r1.Indexes(), r2.Indexes())
	}
	p1, _ := d.GBDPriorProb(3)
	p2, _ := d2.GBDPriorProb(3)
	if p1 != p2 {
		t.Fatalf("GBD prior drifted: %v vs %v", p1, p2)
	}
}

func TestSavePriorsWithoutFitFails(t *testing.T) {
	d := gsim.New(gsim.WithName("empty"))
	var buf bytes.Buffer
	if err := d.SavePriors(&buf); err != gsim.ErrNoPriors {
		t.Fatalf("err = %v, want ErrNoPriors", err)
	}
}

func TestLoadPriorsRejectsGarbage(t *testing.T) {
	d := gsim.New(gsim.WithName("x"))
	if err := d.LoadPriors(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestPrefilterKeepsRecallImprovesPrecision: prefiltered GBDA must return a
// subset of the unfiltered result that still contains every true answer.
func TestPrefilterKeepsRecallImprovesPrecision(t *testing.T) {
	ds := tinyDataset(t, 25)
	d := openDataset(t, ds)
	for _, qi := range ds.Queries {
		q := gsim.CollectionQuery(ds.Col, qi)
		plain, err := d.Search(q, gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Gamma: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		filtered, err := d.Search(q, gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Gamma: 0.5, Prefilter: true})
		if err != nil {
			t.Fatal(err)
		}
		inPlain := map[int]bool{}
		for _, i := range plain.Indexes() {
			inPlain[i] = true
		}
		for _, i := range filtered.Indexes() {
			if !inPlain[i] {
				t.Fatalf("prefilter introduced new match %d", i)
			}
		}
		truth := ds.TruthSet(qi, 3)
		cf := metrics.Evaluate(filtered.Indexes(), truth)
		cp := metrics.Evaluate(plain.Indexes(), truth)
		if cf.Recall() < cp.Recall() {
			t.Fatalf("prefilter lost recall: %v vs %v", cf.Recall(), cp.Recall())
		}
		if cf.Precision()+1e-9 < cp.Precision() {
			t.Fatalf("prefilter lost precision: %v vs %v", cf.Precision(), cp.Precision())
		}
	}
}

func TestPrefilterWithBaselines(t *testing.T) {
	ds := tinyDataset(t, 26)
	d := openDataset(t, ds)
	q := gsim.CollectionQuery(ds.Col, ds.Queries[0])
	for _, m := range []gsim.Method{gsim.LSAP, gsim.GreedySort, gsim.Exact} {
		plain, err := d.Search(q, gsim.SearchOptions{Method: m, Tau: 3})
		if err != nil {
			t.Fatal(err)
		}
		filtered, err := d.Search(q, gsim.SearchOptions{Method: m, Tau: 3, Prefilter: true})
		if err != nil {
			t.Fatal(err)
		}
		// LSAP and Exact: admissible pruning must not change the result
		// at all (both decide by true bounds/distances).
		if m != gsim.GreedySort && !reflect.DeepEqual(plain.Indexes(), filtered.Indexes()) {
			t.Fatalf("%v: prefilter changed results %v -> %v", m, plain.Indexes(), filtered.Indexes())
		}
	}
}

func TestPrefilterIncompatibleWithCollectAll(t *testing.T) {
	ds := tinyDataset(t, 27)
	d := openDataset(t, ds)
	q := gsim.CollectionQuery(ds.Col, ds.Queries[0])
	_, err := d.Search(q, gsim.SearchOptions{Method: gsim.LSAP, Tau: 3, Prefilter: true, CollectAll: true})
	if err == nil {
		t.Fatal("CollectAll+Prefilter accepted")
	}
}
