package gsim_test

import (
	"bytes"
	"testing"

	"gsim"
)

func TestEmptyDatabaseSearch(t *testing.T) {
	d := gsim.New(gsim.WithName("empty"))
	q := d.NewGraph("q")
	q.AddVertex("A")
	// Baselines scan nothing and return cleanly.
	res, err := d.Search(q.Query(), gsim.SearchOptions{Method: gsim.LSAP, Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 0 || len(res.Matches) != 0 {
		t.Fatalf("empty database returned %+v", res)
	}
	// Priors cannot be fitted on fewer than two graphs.
	if err := d.BuildPriors(gsim.OfflineConfig{}); err == nil {
		t.Fatal("BuildPriors on empty database accepted")
	}
}

func TestUnknownMethodRejected(t *testing.T) {
	d := gsim.New(gsim.WithName("x"))
	b := d.NewGraph("g")
	b.AddVertex("A")
	if _, err := b.Store(); err != nil {
		t.Fatal(err)
	}
	q := d.NewGraph("q")
	q.AddVertex("A")
	if _, err := d.Search(q.Query(), gsim.SearchOptions{Method: gsim.Method(99), Tau: 1}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestStoreRejectsInvalidGraph(t *testing.T) {
	// The builder API cannot create invalid graphs through its methods,
	// but Store must still validate (defense in depth for future APIs).
	d := gsim.New(gsim.WithName("x"))
	b := d.NewGraph("ok")
	b.AddVertex("A")
	if _, err := b.Store(); err != nil {
		t.Fatal(err)
	}
}

func TestV2WeightOneMatchesPlainGBDA(t *testing.T) {
	// With w = 1, VGBD = GBD, so GBDA-V2 must reproduce GBDA exactly.
	ds := tinyDataset(t, 30)
	d := openDataset(t, ds)
	for _, qi := range ds.Queries {
		q := gsim.CollectionQuery(ds.Col, qi)
		plain, err := d.Search(q, gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Gamma: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		v2, err := d.Search(q, gsim.SearchOptions{Method: gsim.GBDAV2, Tau: 3, Gamma: 0.6, V2Weight: 1})
		if err != nil {
			t.Fatal(err)
		}
		a, b := plain.Indexes(), v2.Indexes()
		if len(a) != len(b) {
			t.Fatalf("V2(w=1) diverges from GBDA: %v vs %v", a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("V2(w=1) diverges from GBDA: %v vs %v", a, b)
			}
		}
	}
}

func TestTextReloadThroughFacade(t *testing.T) {
	ds := tinyDataset(t, 31)
	d := gsim.FromCollection(ds.Col, nil)
	var buf bytes.Buffer
	if err := d.SaveText(&buf); err != nil {
		t.Fatal(err)
	}
	d2 := gsim.New(gsim.WithName("reload"))
	if _, err := d2.LoadText(&buf); err != nil {
		t.Fatal(err)
	}
	if d2.Len() != d.Len() || d2.Stats() != d.Stats() {
		t.Fatalf("text reload drifted: %v vs %v", d2.Stats(), d.Stats())
	}
	// A reloaded database is fully functional end to end.
	if err := d2.BuildPriors(gsim.OfflineConfig{TauMax: 4, SamplePairs: 1000}); err != nil {
		t.Fatal(err)
	}
	res, err := d2.Search(d2.Query(0), gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != d2.Len() {
		t.Fatalf("scanned %d of %d after reload", res.Scanned, d2.Len())
	}
	if _, err := d2.LoadText(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage text accepted")
	}
}

func TestDirectedAndWeightedBuilders(t *testing.T) {
	d := gsim.New(gsim.WithName("dw"))
	mk := func(name string, flip bool) int {
		b := d.NewGraph(name)
		a := b.AddVertex("P")
		c := b.AddVertex("Q")
		e := b.AddVertex("R")
		var err error
		if flip {
			err = b.AddDirectedEdge(c, a, "cites")
		} else {
			err = b.AddDirectedEdge(a, c, "cites")
		}
		if err != nil {
			t.Fatal(err)
		}
		wb := gsim.WeightBuckets{Min: 0, Max: 1, Buckets: 4}
		if err := b.AddWeightedEdge(c, e, 0.9, wb); err != nil {
			t.Fatal(err)
		}
		idx, err := b.Store()
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	fwd := mk("fwd", false)
	fwd2 := mk("fwd2", false)
	rev := mk("rev", true)
	// Exact distances: identical orientation is 0 apart, the reversed arc
	// costs exactly one edge relabel under the fold. (Note Tau: 0 would
	// select the default threshold, so assert through the scores.)
	res, err := d.Search(d.Query(fwd), gsim.SearchOptions{Method: gsim.Exact, Tau: 1})
	if err != nil {
		t.Fatal(err)
	}
	scores := map[int]float64{}
	for _, m := range res.Matches {
		scores[m.Index] = m.Score
	}
	if got, ok := scores[fwd2]; !ok || got != 0 {
		t.Fatalf("identical directed graph: score %v, %v; want GED 0", got, ok)
	}
	if got, ok := scores[rev]; !ok || got != 1 {
		t.Fatalf("reversed arc: score %v, %v; want GED 1 (direction folding)", got, ok)
	}
}

func TestQueryAccessors(t *testing.T) {
	d := gsim.New(gsim.WithName("acc"))
	b := d.NewGraph("named")
	b.AddVertex("A")
	b.AddVertex("B")
	q := b.Query()
	if q.Name() != "named" || q.NumVertices() != 2 {
		t.Fatalf("accessors: %q %d", q.Name(), q.NumVertices())
	}
}
