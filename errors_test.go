package gsim_test

import (
	"errors"
	"testing"

	"gsim"
)

// TestErrBadOptionsSentinel: every option-validation failure wraps
// gsim.ErrBadOptions so callers (the HTTP layer maps it to 400) can
// separate request mistakes from database state.
func TestErrBadOptionsSentinel(t *testing.T) {
	ds := tinyDataset(t, 42)
	d := openDataset(t, ds)
	q := gsim.CollectionQuery(ds.Col, 0)

	cases := []struct {
		name string
		err  func() error
	}{
		{"unknown method", func() error {
			_, err := d.Search(q, gsim.SearchOptions{Method: gsim.Method(99), Tau: 2})
			return err
		}},
		{"CollectAll on Exact", func() error {
			_, err := d.Search(q, gsim.SearchOptions{Method: gsim.Exact, Tau: 2, CollectAll: true})
			return err
		}},
		{"CollectAll with Prefilter", func() error {
			_, err := d.Search(q, gsim.SearchOptions{Method: gsim.LSAP, Tau: 2, CollectAll: true, Prefilter: true})
			return err
		}},
		{"tau beyond prior ceiling", func() error {
			_, err := d.Search(q, gsim.SearchOptions{Method: gsim.GBDA, Tau: d.TauMax() + 1})
			return err
		}},
		{"non-rankable TopK method", func() error {
			_, err := d.SearchTopK(q, gsim.TopKOptions{Method: gsim.Exact, K: 3})
			return err
		}},
	}
	for _, tc := range cases {
		err := tc.err()
		if err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		if !errors.Is(err, gsim.ErrBadOptions) {
			t.Errorf("%s: %v does not wrap ErrBadOptions", tc.name, err)
		}
		if errors.Is(err, gsim.ErrNoPriors) {
			t.Errorf("%s: %v wraps ErrNoPriors too", tc.name, err)
		}
	}
}

// TestNewQueryEphemeralLabels: a NewQuery builder resolves known labels
// to their shared IDs (identical search results to a stored-path query)
// while unknown labels stay out of the dictionary; the builder refuses
// the operations that would need durable labels.
func TestNewQueryEphemeralLabels(t *testing.T) {
	d := gsim.New(gsim.WithName("eph"))
	for i := 0; i < 3; i++ {
		b := d.NewGraph("g")
		b.AddVertex("A")
		b.AddVertex("B")
		if err := b.AddEdge(0, 1, "x"); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Store(); err != nil {
			t.Fatal(err)
		}
	}

	// Known labels: NewQuery and NewGraph queries search identically.
	mk := func(b *gsim.GraphBuilder) *gsim.Query {
		b.AddVertex("A")
		b.AddVertex("B")
		if err := b.AddEdge(0, 1, "x"); err != nil {
			t.Fatal(err)
		}
		return b.Query()
	}
	opt := gsim.SearchOptions{Method: gsim.LSAP, Tau: 1}
	r1, err := d.Search(mk(d.NewQuery("q")), opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.Search(mk(d.NewGraph("q")), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Matches) != 3 || len(r2.Matches) != 3 {
		t.Fatalf("known-label query: %d vs %d matches, want 3", len(r1.Matches), len(r2.Matches))
	}

	// Unknown labels: the query runs (and matches nothing at tau 0-ish
	// distance) without touching the dictionary.
	lvBefore := d.Stats()
	q := d.NewQuery("alien")
	q.AddVertex("never-seen-1")
	q.AddVertex("never-seen-2")
	if err := q.AddEdge(0, 1, "never-seen-e"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Search(q.Query(), gsim.SearchOptions{Method: gsim.LSAP, Tau: 1}); err != nil {
		t.Fatal(err)
	}
	if after := d.Stats(); after.LV != lvBefore.LV || after.LE != lvBefore.LE {
		t.Fatalf("ephemeral query changed label stats: %+v -> %+v", lvBefore, after)
	}

	// The builder refuses durable-label operations.
	qb := d.NewQuery("no-store")
	qb.AddVertex("A")
	if _, err := qb.Store(); err == nil {
		t.Fatal("NewQuery builder stored a graph")
	}
	if err := qb.AddDirectedEdge(0, 0, "base"); err == nil {
		t.Fatal("NewQuery builder accepted a directed edge")
	}
	if err := qb.AddWeightedEdge(0, 0, 1.5, gsim.WeightBuckets{}); err == nil {
		t.Fatal("NewQuery builder accepted a weighted edge")
	}
}

// TestErrNoPriorsIsNotBadOptions: a priorless database is a state
// problem (409), not a request problem (400).
func TestErrNoPriorsIsNotBadOptions(t *testing.T) {
	d := gsim.FromCollection(tinyDataset(t, 43).Col, nil)
	_, err := d.Search(d.Query(0), gsim.SearchOptions{Method: gsim.GBDA, Tau: 2})
	if !errors.Is(err, gsim.ErrNoPriors) {
		t.Fatalf("%v does not wrap ErrNoPriors", err)
	}
	if errors.Is(err, gsim.ErrBadOptions) {
		t.Fatalf("%v wraps ErrBadOptions", err)
	}
}
