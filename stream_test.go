package gsim_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"gsim"
)

// TestSearchStreamMatchesSearch: the streaming API must produce exactly
// the matches Search collects, just unordered.
func TestSearchStreamMatchesSearch(t *testing.T) {
	ds := tinyDataset(t, 40)
	d := openDataset(t, ds)
	q := gsim.CollectionQuery(ds.Col, ds.Queries[0])
	opt := gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Gamma: 0.5}
	res, err := d.Search(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	streamed := map[int]float64{}
	scanned, err := d.SearchStream(context.Background(), q, opt, func(m gsim.Match) bool {
		streamed[m.Index] = m.Score
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned != res.Scanned {
		t.Fatalf("stream scanned %d, Search scanned %d", scanned, res.Scanned)
	}
	if len(streamed) != len(res.Matches) {
		t.Fatalf("stream yielded %d matches, Search %d", len(streamed), len(res.Matches))
	}
	for _, m := range res.Matches {
		if s, ok := streamed[m.Index]; !ok || s != m.Score {
			t.Fatalf("match %d: stream score %v, Search score %v", m.Index, s, m.Score)
		}
	}
}

// TestSearchStreamEarlyStop: yield returning false ends the scan after one
// match, without error.
func TestSearchStreamEarlyStop(t *testing.T) {
	ds := tinyDataset(t, 41)
	d := openDataset(t, ds)
	q := gsim.CollectionQuery(ds.Col, ds.Queries[0])
	var yields int
	_, err := d.SearchStream(context.Background(), q,
		gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Gamma: 0.5},
		func(m gsim.Match) bool { yields++; return false })
	if err != nil {
		t.Fatal(err)
	}
	if yields != 1 {
		t.Fatalf("yield called %d times after stop", yields)
	}
}

// TestSearchStreamCancellation: a cancelled context aborts the scan with
// context.Canceled, at any worker count.
func TestSearchStreamCancellation(t *testing.T) {
	ds := tinyDataset(t, 42)
	d := openDataset(t, ds)
	q := gsim.CollectionQuery(ds.Col, ds.Queries[0])
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := d.SearchStream(ctx, q,
			gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Gamma: 0.5, Workers: workers},
			func(m gsim.Match) bool { t.Fatal("yield under cancelled context"); return false })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	// SearchContext surfaces the same cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.SearchContext(ctx, q, gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Gamma: 0.5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchContext err = %v, want context.Canceled", err)
	}
}

// TestPrefilterSeesGraphsAddedAfterFirstSearch is the regression test for
// the old ixOnce staleness: a graph stored after the first prefiltered
// search was silently invisible to every later prefiltered search.
func TestPrefilterSeesGraphsAddedAfterFirstSearch(t *testing.T) {
	d := gsim.New(gsim.WithName("fresh"))
	mk := func(name string, labels ...string) int {
		b := d.NewGraph(name)
		ids := make([]int, len(labels))
		for i, l := range labels {
			ids[i] = b.AddVertex(l)
		}
		for i := 1; i < len(ids); i++ {
			if err := b.AddEdge(ids[i-1], ids[i], "b"); err != nil {
				t.Fatal(err)
			}
		}
		idx, err := b.Store()
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	mk("far1", "X", "X", "X", "X", "X", "X", "X")
	mk("far2", "Y", "Y", "Y", "Y", "Y", "Y", "Y")

	qb := d.NewGraph("q")
	a := qb.AddVertex("A")
	b := qb.AddVertex("B")
	c := qb.AddVertex("C")
	if err := qb.AddEdge(a, b, "b"); err != nil {
		t.Fatal(err)
	}
	if err := qb.AddEdge(b, c, "b"); err != nil {
		t.Fatal(err)
	}
	q := qb.Query()

	// First prefiltered search: builds the index over the two far graphs.
	opt := gsim.SearchOptions{Method: gsim.LSAP, Tau: 1, Prefilter: true}
	res, err := d.Search(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Fatalf("far graphs matched: %+v", res.Matches)
	}

	// Store an exact copy of the query AFTER the index exists.
	twin := mk("twin", "A", "B", "C")

	res, err = d.Search(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Indexes(); !reflect.DeepEqual(got, []int{twin}) {
		t.Fatalf("prefiltered search after Add found %v, want [%d]", got, twin)
	}
	// And the unfiltered search agrees.
	plain, err := d.Search(q, gsim.SearchOptions{Method: gsim.LSAP, Tau: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Indexes(), res.Indexes()) {
		t.Fatalf("prefilter diverges from plain scan: %v vs %v", res.Indexes(), plain.Indexes())
	}
}

// TestSearchBatchMatchesSearch: the batch API must agree with per-query
// Search, result for result — same matches, same scores, same scan
// counts — for every registered method with and without the prefilter,
// and for CollectAll.
func TestSearchBatchMatchesSearch(t *testing.T) {
	ds := tinyDataset(t, 43)
	d := openDataset(t, ds)
	queries := make([]*gsim.Query, 0, len(ds.Queries))
	for _, qi := range ds.Queries {
		queries = append(queries, gsim.CollectionQuery(ds.Col, qi))
	}
	var opts []gsim.SearchOptions
	for _, m := range gsim.Methods() {
		opts = append(opts,
			gsim.SearchOptions{Method: m, Tau: 3, Gamma: 0.5},
			gsim.SearchOptions{Method: m, Tau: 3, Gamma: 0.5, Prefilter: true})
	}
	opts = append(opts,
		gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Gamma: 0.5, CollectAll: true},
		gsim.SearchOptions{Method: gsim.Seriation, Tau: 3, CollectAll: true})
	for _, opt := range opts {
		batch, err := d.SearchBatch(context.Background(), queries, opt)
		if err != nil {
			t.Fatalf("%v prefilter=%v collectAll=%v: %v", opt.Method, opt.Prefilter, opt.CollectAll, err)
		}
		if len(batch) != len(queries) {
			t.Fatalf("batch returned %d results for %d queries", len(batch), len(queries))
		}
		for i, q := range queries {
			single, err := d.Search(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batch[i].Matches, single.Matches) {
				t.Fatalf("%v prefilter=%v collectAll=%v query %d: batch %v, single %v",
					opt.Method, opt.Prefilter, opt.CollectAll, i, batch[i].Matches, single.Matches)
			}
			if batch[i].Scanned != single.Scanned {
				t.Fatalf("%v prefilter=%v collectAll=%v query %d: batch scanned %d, single %d",
					opt.Method, opt.Prefilter, opt.CollectAll, i, batch[i].Scanned, single.Scanned)
			}
		}
	}
}

// TestSearchBatchCancellation: an expired context fails the whole batch.
func TestSearchBatchCancellation(t *testing.T) {
	ds := tinyDataset(t, 44)
	d := openDataset(t, ds)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := d.SearchBatch(ctx, []*gsim.Query{gsim.CollectionQuery(ds.Col, ds.Queries[0])},
		gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Gamma: 0.5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSearchTopKDeterministicTieBreak: with many equal-score candidates the
// K-boundary and the result order must not depend on the worker count —
// ties order by ascending collection index.
func TestSearchTopKDeterministicTieBreak(t *testing.T) {
	d := gsim.New(gsim.WithName("ties"))
	clone := func(name string) {
		b := d.NewGraph(name)
		x := b.AddVertex("X")
		y := b.AddVertex("Y")
		if err := b.AddEdge(x, y, "e"); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Store(); err != nil {
			t.Fatal(err)
		}
	}
	// 30 identical graphs: every score ties, so only the index order can
	// decide the top 7.
	for i := 0; i < 30; i++ {
		clone("same")
	}
	qb := d.NewGraph("q")
	x := qb.AddVertex("X")
	y := qb.AddVertex("Y")
	if err := qb.AddEdge(x, y, "e"); err != nil {
		t.Fatal(err)
	}
	q := qb.Query()

	var want []gsim.Match
	for _, workers := range []int{1, 2, 8, 32} {
		res, err := d.SearchTopK(q, gsim.TopKOptions{Method: gsim.GreedySort, K: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 7 {
			t.Fatalf("workers=%d: got %d matches", workers, len(res.Matches))
		}
		for i, m := range res.Matches {
			if m.Index != i {
				t.Fatalf("workers=%d: tie-break violated, position %d holds index %d: %v", workers, i, m.Index, res.Matches)
			}
		}
		if want == nil {
			want = res.Matches
		} else if !reflect.DeepEqual(res.Matches, want) {
			t.Fatalf("workers=%d: ranking differs: %v vs %v", workers, res.Matches, want)
		}
	}
}

// TestSearchTopKZeroScoreTail: when fewer than K graphs have a posterior
// above 0, the rest of the ranking is the zero-score tail in index order.
// The scan refuses entries that cannot enter the heap before it takes the
// emit lock, and stops a view's zero tail at the first zero the heap
// refuses while the view's IDs ascend; both must leave the (score, index)
// order — ties included — exactly what ranking every scored graph
// produces, at any worker count. After the six lowest-ID zeros are
// deleted the shards are out of ID order: each delete swap-removes a
// shard's highest remaining ID into the freed low slot, so a view no
// longer ascends past it (a zero pass that trusted the whole view to
// ascend fails here). With more shards than graphs some views are empty,
// and claimed ranges cross them.
func TestSearchTopKZeroScoreTail(t *testing.T) {
	ds := tinyDataset(t, 45)
	q := gsim.CollectionQuery(ds.Col, ds.Queries[0])
	const k, tau = 25, 1
	open := func(t *testing.T, shards int) *gsim.Database {
		d := gsim.FromCollectionShards(ds.Col, ds.DBGraphs, shards)
		if err := d.BuildPriors(gsim.OfflineConfig{TauMax: 5, SamplePairs: 4000, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	check := func(t *testing.T, d *gsim.Database, stored int) {
		all, err := d.Search(q, gsim.SearchOptions{Method: gsim.GBDA, Tau: tau, CollectAll: true})
		if err != nil {
			t.Fatal(err)
		}
		want := append([]gsim.Match(nil), all.Matches...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Score > want[j].Score }) // Matches arrive in index order
		positive := 0
		for _, m := range want {
			if m.Score > 0 {
				positive++
			}
		}
		if positive == 0 || positive >= k || len(want) <= k {
			t.Fatalf("fixture has %d of %d graphs above 0; the case needs some but fewer than K=%d", positive, len(want), k)
		}
		for _, workers := range []int{1, 2, 8, 32} {
			res, err := d.SearchTopK(q, gsim.TopKOptions{Method: gsim.GBDA, K: k, Tau: tau, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Matches, want[:k]) {
				t.Fatalf("workers=%d: ranking differs from the fully scored scan:\n got %v\nwant %v", workers, res.Matches, want[:k])
			}
			if res.Scanned != stored {
				t.Fatalf("workers=%d: scanned %d, want %d", workers, res.Scanned, stored)
			}
		}
	}
	t.Run("ascending", func(t *testing.T) { check(t, openDataset(t, ds), len(ds.DBGraphs)) })
	t.Run("empty-shards", func(t *testing.T) {
		d := open(t, 64)
		if !slices.Contains(d.ShardSizes(), 0) {
			t.Fatalf("shard sizes %v: the case needs an empty shard", d.ShardSizes())
		}
		check(t, d, len(ds.DBGraphs))
	})
	for _, shards := range []int{2, 3, 7, 64} {
		t.Run(fmt.Sprintf("after-delete/shards=%d", shards), func(t *testing.T) {
			d := open(t, shards)
			all, err := d.Search(q, gsim.SearchOptions{Method: gsim.GBDA, Tau: tau, CollectAll: true})
			if err != nil {
				t.Fatal(err)
			}
			deleted := 0
			for _, m := range all.Matches {
				if m.Score > 0 {
					continue
				}
				if err := d.Delete(m.Index); err != nil {
					t.Fatal(err)
				}
				if deleted++; deleted == 6 {
					break
				}
			}
			check(t, d, len(ds.DBGraphs)-deleted)
		})
	}
}

// TestSearchTopKMemoryBound: the bounded heap must never hold more than K
// matches — exercised indirectly by K far below the match count.
func TestSearchTopKMemoryBound(t *testing.T) {
	ds := tinyDataset(t, 45)
	d := openDataset(t, ds)
	q := gsim.CollectionQuery(ds.Col, ds.Queries[0])
	res, err := d.SearchTopK(q, gsim.TopKOptions{Method: gsim.GBDA, K: 3, Tau: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 3 {
		t.Fatalf("got %d matches, want 3", len(res.Matches))
	}
	if res.Scanned != len(ds.DBGraphs) {
		t.Fatalf("scanned %d, want %d", res.Scanned, len(ds.DBGraphs))
	}
}

// TestParseMethodRoundTrip: every registered method parses from its own
// rendered name.
func TestParseMethodRoundTrip(t *testing.T) {
	ms := gsim.Methods()
	if len(ms) != 8 {
		t.Fatalf("Methods() lists %d methods, want 8", len(ms))
	}
	for _, m := range ms {
		got, err := gsim.ParseMethod(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := gsim.ParseMethod("no-such-method"); err == nil {
		t.Fatal("unknown name accepted")
	}
}
