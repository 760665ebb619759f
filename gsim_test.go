package gsim_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"gsim"
	"gsim/internal/dataset"
	"gsim/internal/metrics"
)

// tinyDataset builds a cluster dataset small enough for exact verification.
func tinyDataset(t testing.TB, seed int64) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name: "it", NumGraphs: 60, QueryFraction: 0.1,
		MinV: 7, MaxV: 10, ExtraPerV: 0.25, ScaleFree: true,
		LV: 30, LE: 3, PoolSize: 5, ClusterSize: 10, ModSlots: 4,
		GuardTau: 5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func openDataset(t testing.TB, ds *dataset.Dataset) *gsim.Database {
	t.Helper()
	d := gsim.FromCollection(ds.Col, ds.DBGraphs)
	if err := d.BuildPriors(gsim.OfflineConfig{TauMax: 5, SamplePairs: 4000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuilderQuickstartFlow(t *testing.T) {
	d := gsim.New(gsim.WithName("demo"))
	mk := func(name string, edgeLabel string) {
		b := d.NewGraph(name)
		c1 := b.AddVertex("C")
		o := b.AddVertex("O")
		c2 := b.AddVertex("C")
		if err := b.AddEdge(c1, o, edgeLabel); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(o, c2, "single"); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Store(); err != nil {
			t.Fatal(err)
		}
	}
	mk("water-ish", "single")
	mk("variant", "double")
	far := d.NewGraph("far")
	for i := 0; i < 6; i++ {
		far.AddVertex("N")
	}
	if _, err := far.Store(); err != nil {
		t.Fatal(err)
	}

	if err := d.BuildPriors(gsim.OfflineConfig{TauMax: 3, SamplePairs: 500}); err != nil {
		t.Fatal(err)
	}
	q := d.NewGraph("q")
	c1 := q.AddVertex("C")
	o := q.AddVertex("O")
	c2 := q.AddVertex("C")
	_ = q.AddEdge(c1, o, "single")
	_ = q.AddEdge(o, c2, "single")

	res, err := d.Search(q.Query(), gsim.SearchOptions{Method: gsim.GBDA, Tau: 2, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, m := range res.Matches {
		got[m.Name] = true
	}
	if !got["water-ish"] {
		t.Fatalf("identical graph not matched: %+v", res.Matches)
	}
	if got["far"] {
		t.Fatal("structurally distant graph matched")
	}
	if res.Scanned != 3 {
		t.Fatalf("scanned %d, want 3", res.Scanned)
	}
	if res.Elapsed <= 0 {
		t.Fatal("missing elapsed time")
	}
}

func TestSearchWithoutPriorsFails(t *testing.T) {
	ds := tinyDataset(t, 1)
	d := gsim.FromCollection(ds.Col, ds.DBGraphs)
	q := gsim.CollectionQuery(ds.Col, ds.Queries[0])
	for _, m := range []gsim.Method{gsim.GBDA, gsim.GBDAV1, gsim.GBDAV2, gsim.Hybrid} {
		if _, err := d.Search(q, gsim.SearchOptions{Method: m, Tau: 2}); !errors.Is(err, gsim.ErrNoPriors) {
			t.Fatalf("%v: err = %v, want ErrNoPriors", m, err)
		}
	}
	// Baselines work without priors.
	if _, err := d.Search(q, gsim.SearchOptions{Method: gsim.LSAP, Tau: 2}); err != nil {
		t.Fatalf("LSAP without priors: %v", err)
	}
}

func TestTauAboveCeilingRejected(t *testing.T) {
	ds := tinyDataset(t, 2)
	d := openDataset(t, ds)
	q := gsim.CollectionQuery(ds.Col, ds.Queries[0])
	if _, err := d.Search(q, gsim.SearchOptions{Method: gsim.GBDA, Tau: 9}); err == nil {
		t.Fatal("tau above prior ceiling accepted")
	}
}

// TestExactSearchMatchesGroundTruth: the Exact method must reproduce the
// dataset's certified truth sets perfectly — tying A*, the generator's
// known-GED construction, and the search plumbing together.
func TestExactSearchMatchesGroundTruth(t *testing.T) {
	ds := tinyDataset(t, 3)
	d := openDataset(t, ds)
	for _, tau := range []int{1, 3} {
		for _, qi := range ds.Queries[:2] {
			res, err := d.Search(gsim.CollectionQuery(ds.Col, qi), gsim.SearchOptions{Method: gsim.Exact, Tau: tau})
			if err != nil {
				t.Fatal(err)
			}
			want := ds.TruthSet(qi, tau)
			if want == nil {
				want = []int{}
			}
			got := res.Indexes()
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("q=%d τ=%d: exact search %v, truth %v", qi, tau, got, want)
			}
		}
	}
}

// TestLSAPHasPerfectRecall verifies the lower-bound filter's defining
// property (Section VIII-B): it never misses a true answer.
func TestLSAPHasPerfectRecall(t *testing.T) {
	ds := tinyDataset(t, 4)
	d := openDataset(t, ds)
	for _, qi := range ds.Queries {
		for _, tau := range []int{1, 2, 4} {
			res, err := d.Search(gsim.CollectionQuery(ds.Col, qi), gsim.SearchOptions{Method: gsim.LSAP, Tau: tau})
			if err != nil {
				t.Fatal(err)
			}
			c := metrics.Evaluate(res.Indexes(), ds.TruthSet(qi, tau))
			if c.Recall() != 1 {
				t.Fatalf("q=%d τ=%d: LSAP recall %v", qi, tau, c.Recall())
			}
		}
	}
}

// TestGreedySortHighPrecision: an upper-bound estimate accepting est ≤ τ
// can only return true positives' supersets... of nothing — accepted pairs
// satisfy GED ≤ est ≤ τ, so precision is exactly 1.
func TestGreedySortHighPrecision(t *testing.T) {
	ds := tinyDataset(t, 5)
	d := openDataset(t, ds)
	for _, qi := range ds.Queries {
		res, err := d.Search(gsim.CollectionQuery(ds.Col, qi), gsim.SearchOptions{Method: gsim.GreedySort, Tau: 3})
		if err != nil {
			t.Fatal(err)
		}
		c := metrics.Evaluate(res.Indexes(), ds.TruthSet(qi, 3))
		if c.Precision() != 1 {
			t.Fatalf("q=%d: greedy precision %v (upper bound violated?)", qi, c.Precision())
		}
	}
}

func TestGBDAFindsClusterMembers(t *testing.T) {
	ds := tinyDataset(t, 6)
	d := openDataset(t, ds)
	var agg metrics.Counts
	for _, qi := range ds.Queries {
		res, err := d.Search(gsim.CollectionQuery(ds.Col, qi), gsim.SearchOptions{Method: gsim.GBDA, Tau: 4, Gamma: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		agg.Add(metrics.Evaluate(res.Indexes(), ds.TruthSet(qi, 4)))
	}
	if agg.F1() < 0.5 {
		t.Fatalf("aggregate GBDA F1 = %v — model or priors broken (%v)", agg.F1(), agg)
	}
}

func TestGBDAVariantsRun(t *testing.T) {
	ds := tinyDataset(t, 7)
	d := openDataset(t, ds)
	q := gsim.CollectionQuery(ds.Col, ds.Queries[0])
	for _, opt := range []gsim.SearchOptions{
		{Method: gsim.GBDAV1, Tau: 3, Gamma: 0.5, V1Sample: 10},
		{Method: gsim.GBDAV2, Tau: 3, Gamma: 0.5, V2Weight: 0.5},
		{Method: gsim.Seriation, Tau: 3},
	} {
		res, err := d.Search(q, opt)
		if err != nil {
			t.Fatalf("%v: %v", opt.Method, err)
		}
		if res.Scanned != len(ds.DBGraphs) {
			t.Fatalf("%v scanned %d of %d", opt.Method, res.Scanned, len(ds.DBGraphs))
		}
	}
}

// TestHybridRefinesGBDA: hybrid results are a subset of the GBDA filter's,
// with precision at least as high.
func TestHybridRefinesGBDA(t *testing.T) {
	ds := tinyDataset(t, 8)
	d := openDataset(t, ds)
	for _, qi := range ds.Queries {
		q := gsim.CollectionQuery(ds.Col, qi)
		filt, err := d.Search(q, gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Gamma: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		hyb, err := d.Search(q, gsim.SearchOptions{Method: gsim.Hybrid, Tau: 3, Gamma: 0.5, HybridVerifyMax: 16})
		if err != nil {
			t.Fatal(err)
		}
		inFilter := map[int]bool{}
		for _, i := range filt.Indexes() {
			inFilter[i] = true
		}
		for _, i := range hyb.Indexes() {
			if !inFilter[i] {
				t.Fatalf("hybrid returned %d not in the GBDA filter set", i)
			}
		}
		truth := ds.TruthSet(qi, 3)
		pf := metrics.Evaluate(filt.Indexes(), truth).Precision()
		ph := metrics.Evaluate(hyb.Indexes(), truth).Precision()
		if ph+1e-9 < pf {
			t.Fatalf("hybrid precision %v below filter precision %v", ph, pf)
		}
		// With verification covering all graph sizes here, precision is 1.
		if ph != 1 {
			t.Fatalf("hybrid precision %v, want 1 on fully-verifiable graphs", ph)
		}
	}
}

func TestBaselineSizeGuard(t *testing.T) {
	ds := tinyDataset(t, 9)
	d := openDataset(t, ds)
	q := gsim.CollectionQuery(ds.Col, ds.Queries[0])
	for _, m := range []gsim.Method{gsim.LSAP, gsim.GreedySort, gsim.Seriation} {
		_, err := d.Search(q, gsim.SearchOptions{Method: m, Tau: 2, BaselineMaxVertices: 5})
		if !errors.Is(err, gsim.ErrTooLarge) {
			t.Fatalf("%v with low guard: err = %v, want ErrTooLarge", m, err)
		}
	}
}

func TestSearchDeterministicAcrossWorkerCounts(t *testing.T) {
	ds := tinyDataset(t, 10)
	d := openDataset(t, ds)
	q := gsim.CollectionQuery(ds.Col, ds.Queries[0])
	var prev []int
	for _, workers := range []int{1, 2, 8} {
		res, err := d.Search(q, gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Gamma: 0.6, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Indexes()
		if prev != nil && !reflect.DeepEqual(prev, got) {
			t.Fatalf("results differ across worker counts: %v vs %v", prev, got)
		}
		prev = got
	}
}

func TestTextRoundTripThroughFacade(t *testing.T) {
	ds := tinyDataset(t, 11)
	d := gsim.FromCollection(ds.Col, nil)
	var buf bytes.Buffer
	if err := d.SaveText(&buf); err != nil {
		t.Fatal(err)
	}
	d2 := gsim.New(gsim.WithName("copy"))
	n, err := d2.LoadText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n != ds.Col.Len() || d2.Len() != ds.Col.Len() {
		t.Fatalf("loaded %d, want %d", n, ds.Col.Len())
	}
	if d.Stats() != d2.Stats() {
		t.Fatalf("stats drifted: %v vs %v", d.Stats(), d2.Stats())
	}
}

func TestPriorAccessors(t *testing.T) {
	ds := tinyDataset(t, 12)
	d := gsim.FromCollection(ds.Col, ds.DBGraphs)
	if _, err := d.GBDPriorProb(3); !errors.Is(err, gsim.ErrNoPriors) {
		t.Fatal("GBDPriorProb before priors should fail")
	}
	if _, err := d.GEDPriorRow(10); !errors.Is(err, gsim.ErrNoPriors) {
		t.Fatal("GEDPriorRow before priors should fail")
	}
	if err := d.BuildPriors(gsim.OfflineConfig{TauMax: 4, SamplePairs: 1000}); err != nil {
		t.Fatal(err)
	}
	p, err := d.GBDPriorProb(3)
	if err != nil || p <= 0 {
		t.Fatalf("GBDPriorProb = %v, %v", p, err)
	}
	row, err := d.GEDPriorRow(9)
	if err != nil || len(row) != 5 {
		t.Fatalf("GEDPriorRow = %v, %v", row, err)
	}
	if d.TauMax() != 4 {
		t.Fatalf("TauMax = %d", d.TauMax())
	}
}

func TestMethodString(t *testing.T) {
	names := map[gsim.Method]string{
		gsim.GBDA: "GBDA", gsim.GBDAV1: "GBDA-V1", gsim.GBDAV2: "GBDA-V2",
		gsim.LSAP: "LSAP", gsim.GreedySort: "greedysort",
		gsim.Seriation: "seriation", gsim.Exact: "exact", gsim.Hybrid: "hybrid",
	}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("Method(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if gsim.Method(99).String() != "Method(99)" {
		t.Fatal("unknown method stringer broken")
	}
}

// TestFromCollectionStoresEachIDOnce: FromCollection stores the listed
// collection graphs under their collection indexes. An ID listed twice is
// stored once, an ID no graph carries is skipped, and a search scans
// exactly what is stored, in ascending ID whatever the list order.
func TestFromCollectionStoresEachIDOnce(t *testing.T) {
	ds := tinyDataset(t, 13)
	ids := ds.DBGraphs
	dup := ids[3]
	d := gsim.FromCollection(ds.Col, []int{ids[5], dup, ids[1], dup, 1 << 30, ids[0]})
	want := []int{ids[0], ids[1], dup, ids[5]}
	if n := d.Len(); n != len(want) {
		t.Fatalf("Len = %d, want %d distinct collection IDs", n, len(want))
	}
	res, err := d.Search(gsim.CollectionQuery(ds.Col, dup), gsim.SearchOptions{Method: gsim.GreedySort, CollectAll: true})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(res.Matches))
	for i, m := range res.Matches {
		got[i] = m.Index
	}
	if res.Scanned != d.Len() || !reflect.DeepEqual(got, want) {
		t.Fatalf("scanned %d, returned %v; want %d scanned, %v", res.Scanned, got, d.Len(), want)
	}
}
