package gsim_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"gsim"
	"gsim/internal/dataset"
	"gsim/internal/telemetry"
)

// equivDataset generates the deterministic cluster corpus the equivalence
// tests share.
func equivDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name: "shardeq", NumGraphs: 60, QueryFraction: 0.1,
		MinV: 7, MaxV: 10, ExtraPerV: 0.25, ScaleFree: true,
		LV: 30, LE: 3, PoolSize: 5, ClusterSize: 10, ModSlots: 4,
		GuardTau: 5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// resultsIdentical asserts two results agree bit for bit where the
// pre-shard implementation was deterministic: match IDs, names, scores,
// order, and the scanned count.
func resultsIdentical(t *testing.T, label string, a, b *gsim.Result) {
	t.Helper()
	if a.Scanned != b.Scanned {
		t.Fatalf("%s: scanned %d vs %d", label, a.Scanned, b.Scanned)
	}
	if len(a.Matches) != len(b.Matches) {
		t.Fatalf("%s: %d vs %d matches\n%v\n%v", label, len(a.Matches), len(b.Matches), a.Matches, b.Matches)
	}
	for i := range a.Matches {
		ma, mb := a.Matches[i], b.Matches[i]
		if ma.Index != mb.Index || ma.Name != mb.Name || ma.Score != mb.Score {
			t.Fatalf("%s: match %d diverges: %+v vs %+v", label, i, ma, mb)
		}
	}
}

// TestShardedEquivalence: for every method, with and without the
// prefilter, a store partitioned over many shards returns bit-identical
// results (IDs, names, scores, order, scanned counts) to the one-shard
// layout — which reproduces the pre-shard flat collection exactly. Both
// databases share one assembled collection, so any divergence is the
// storage layer's.
func TestShardedEquivalence(t *testing.T) {
	ds := equivDataset(t)
	flat := gsim.FromCollectionShards(ds.Col, ds.DBGraphs, 1)
	sharded := gsim.FromCollectionShards(ds.Col, ds.DBGraphs, 7)
	if flat.NumShards() != 1 || sharded.NumShards() != 7 {
		t.Fatalf("shard counts %d/%d", flat.NumShards(), sharded.NumShards())
	}
	prior := gsim.OfflineConfig{TauMax: 5, SamplePairs: 4000, Seed: 1}
	if err := flat.BuildPriors(prior); err != nil {
		t.Fatal(err)
	}
	if err := sharded.BuildPriors(prior); err != nil {
		t.Fatal(err)
	}
	queries := ds.Queries
	if len(queries) > 3 {
		queries = queries[:3]
	}
	for _, m := range gsim.Methods() {
		for _, prefilter := range []bool{false, true} {
			opt := gsim.SearchOptions{Method: m, Tau: 3, Gamma: 0.8, Prefilter: prefilter,
				ExactBudget: 50000, HybridVerifyMax: 10}
			label := fmt.Sprintf("%v/prefilter=%v", m, prefilter)
			for _, qi := range queries {
				ra, err := flat.Search(gsim.CollectionQuery(ds.Col, qi), opt)
				if err != nil {
					t.Fatalf("%s: flat: %v", label, err)
				}
				rb, err := sharded.Search(gsim.CollectionQuery(ds.Col, qi), opt)
				if err != nil {
					t.Fatalf("%s: sharded: %v", label, err)
				}
				resultsIdentical(t, label, ra, rb)
			}
		}
	}
}

// TestShardedEquivalenceBatchAndTopK: the batch and ranking consumers
// must also be layout-independent.
func TestShardedEquivalenceBatchAndTopK(t *testing.T) {
	ds := equivDataset(t)
	flat := gsim.FromCollectionShards(ds.Col, ds.DBGraphs, 1)
	sharded := gsim.FromCollectionShards(ds.Col, ds.DBGraphs, 5)
	prior := gsim.OfflineConfig{TauMax: 5, SamplePairs: 4000, Seed: 1}
	if err := flat.BuildPriors(prior); err != nil {
		t.Fatal(err)
	}
	if err := sharded.BuildPriors(prior); err != nil {
		t.Fatal(err)
	}
	qs := make([]*gsim.Query, 0, 4)
	for _, qi := range ds.Queries[:4] {
		qs = append(qs, gsim.CollectionQuery(ds.Col, qi))
	}
	ctx := context.Background()
	opt := gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Gamma: 0.8}
	ra, err := flat.SearchBatch(ctx, qs, opt)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sharded.SearchBatch(ctx, qs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra {
		resultsIdentical(t, fmt.Sprintf("batch/query%d", i), ra[i], rb[i])
	}
	for _, m := range []gsim.Method{gsim.GBDA, gsim.LSAP, gsim.Seriation} {
		opt := gsim.TopKOptions{Method: m, K: 7, Tau: 4}
		ra, err := flat.SearchTopK(gsim.CollectionQuery(ds.Col, ds.Queries[0]), opt)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := sharded.SearchTopK(gsim.CollectionQuery(ds.Col, ds.Queries[0]), opt)
		if err != nil {
			t.Fatal(err)
		}
		resultsIdentical(t, fmt.Sprintf("topk/%v", m), ra, rb)
	}
}

// TestMutationTelemetry: every public write is one store commit, yet each
// keeps its own latency label, and each applied mutation ticks its
// shard's counter once — Store, Update, a CommitAll of two inserts and an
// update, a two-graph LoadText and a Delete on a 3-shard database.
func TestMutationTelemetry(t *testing.T) {
	d := gsim.New(gsim.WithShards(3))
	build := func(name string, labels ...string) *gsim.GraphBuilder {
		b := d.NewGraph(name)
		for i, l := range labels {
			b.AddVertex(l)
			if i > 0 {
				if err := b.AddEdge(i-1, i, "e"); err != nil {
					t.Fatal(err)
				}
			}
		}
		return b
	}
	id, err := build("a", "C", "N").Store()
	if err != nil {
		t.Fatal(err)
	}
	if err := build("a2", "C", "O").Update(id); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CommitAll([]gsim.BuilderMutation{
		{Builder: build("b", "C")},
		{Builder: build("c", "N", "N")},
		{Builder: build("a3", "O", "S"), UpdateID: &id},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadText(strings.NewReader("g x 1\nv 0 C\ng y 2\nv 0 N\nv 1 O\ne 0 1 e\n")); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(id); err != nil {
		t.Fatal(err)
	}

	st := d.StoreTelemetry()
	want := [telemetry.NumMutOps]uint64{telemetry.OpAdd: 1, telemetry.OpDelete: 1, telemetry.OpUpdate: 1, telemetry.OpCommit: 2}
	for op, n := range want {
		if got := st.Mut[op].Count(); got != n {
			t.Errorf("%v: %d observations, want %d", telemetry.MutOp(op), got, n)
		}
	}
	var ticks uint64
	for i := range st.Shards {
		ticks += st.Shards[i].Mutations.Load()
	}
	if ticks != 8 {
		t.Errorf("shards counted %d mutations, want 8", ticks)
	}
}

// TestDeleteVisibilityAndEpoch: Delete makes a graph invisible to the
// next search, bumps the epoch (so cached results die), returns
// ErrNotFound for unknown IDs, and Update swaps content under a stable
// ID.
func TestDeleteVisibilityAndEpoch(t *testing.T) {
	d := gsim.New(gsim.WithName("mut"), gsim.WithShards(4))
	if _, err := d.LoadText(strings.NewReader(chainText("seed", 10))); err != nil {
		t.Fatal(err)
	}
	b := d.NewGraph("target")
	b.AddVertex("L0")
	b.AddVertex("L1")
	if err := b.AddEdge(0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	id, err := b.Store()
	if err != nil {
		t.Fatal(err)
	}
	q := d.NewGraph("probe")
	q.AddVertex("L0")
	q.AddVertex("L1")
	if err := q.AddEdge(0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	probe := q.Query()

	find := func() (bool, uint64) {
		res, err := d.Search(probe, gsim.SearchOptions{Method: gsim.LSAP, Tau: 0})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range res.Matches {
			if m.Index == id {
				return true, res.Epoch
			}
		}
		return false, res.Epoch
	}
	found, e1 := find()
	if !found {
		t.Fatal("stored graph not matched before delete")
	}
	if err := d.Delete(id + 1000); err == nil {
		t.Fatal("deleting unknown ID succeeded")
	}
	if err := d.Delete(id); err != nil {
		t.Fatal(err)
	}
	found, e2 := find()
	if found {
		t.Fatal("deleted graph still matched")
	}
	if e2 <= e1 {
		t.Fatalf("delete did not advance the result epoch: %d → %d", e1, e2)
	}
	if err := d.Delete(id); err == nil {
		t.Fatal("double delete succeeded")
	}

	// Update: same ID, new content.
	survivors := d.Len()
	u := d.NewGraph("target-v2")
	u.AddVertex("L2")
	u.AddVertex("L2")
	u.AddVertex("L2")
	if err := u.Update(id); err == nil {
		t.Fatal("updating a deleted ID succeeded")
	}
	id2, err := u.Store()
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatal("deleted ID was reassigned")
	}
	v := d.NewGraph("target-v3")
	v.AddVertex("L0")
	v.AddVertex("L1")
	if err := v.AddEdge(0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := v.Update(id2); err != nil {
		t.Fatal(err)
	}
	if d.Len() != survivors+1 {
		t.Fatalf("Len drifted: %d", d.Len())
	}
	res, err := d.Search(probe, gsim.SearchOptions{Method: gsim.LSAP, Tau: 0})
	if err != nil {
		t.Fatal(err)
	}
	foundUpdated := false
	for _, m := range res.Matches {
		if m.Index == id2 && m.Name == "target-v3" {
			foundUpdated = true
		}
	}
	if !foundUpdated {
		t.Fatalf("updated graph not matched under its ID: %+v", res.Matches)
	}
}

// TestBranchDictCompactionViaDatabase: deleting graphs with unique branch
// shapes drives dictionary entries dead; sustained deletion crosses the
// automatic compaction threshold and reclaims them, while surviving
// graphs keep matching exactly.
func TestBranchDictCompactionViaDatabase(t *testing.T) {
	d := gsim.New(gsim.WithName("compact"), gsim.WithShards(4))
	keep := d.NewGraph("keeper")
	keep.AddVertex("keep")
	keep.AddVertex("keep")
	if err := keep.AddEdge(0, 1, "keep-e"); err != nil {
		t.Fatal(err)
	}
	keepID, err := keep.Store()
	if err != nil {
		t.Fatal(err)
	}
	const churn = 1200 // past the dictionary's automatic threshold
	ids := make([]int, churn)
	for i := 0; i < churn; i++ {
		b := d.NewGraph(fmt.Sprintf("churn%d", i))
		// A unique vertex label per graph → unique branch keys.
		b.AddVertex(fmt.Sprintf("u%d", i))
		b.AddVertex(fmt.Sprintf("u%d", i))
		if err := b.AddEdge(0, 1, "ce"); err != nil {
			t.Fatal(err)
		}
		if ids[i], err = b.Store(); err != nil {
			t.Fatal(err)
		}
	}
	grown := d.BranchDictLen()
	if grown <= churn {
		t.Fatalf("dictionary did not grow with churn: %d", grown)
	}
	for _, id := range ids {
		if err := d.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	st := d.BranchDictStats()
	if st.Compactions == 0 || st.Retired == 0 {
		t.Fatalf("no automatic compaction after %d deletes: %+v", churn, st)
	}
	if st.Live > grown-churn {
		t.Fatalf("live keys did not shrink: %+v (was %d)", st, grown)
	}
	// The survivor still matches itself exactly.
	q := d.NewQuery("probe")
	q.AddVertex("keep")
	q.AddVertex("keep")
	if err := q.AddEdge(0, 1, "keep-e"); err != nil {
		t.Fatal(err)
	}
	res, err := d.Search(q.Query(), gsim.SearchOptions{Method: gsim.LSAP, Tau: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].Index != keepID {
		t.Fatalf("survivor not matched after compaction: %+v", res.Matches)
	}
}

// TestMutationUnderScan is the -race regression for the sharded store:
// graphs are stored, deleted and updated across shards while concurrent
// SearchStream scans run. Each scan must complete without error against
// a consistent snapshot, the epoch must never regress, and the final
// state must reconcile.
func TestMutationUnderScan(t *testing.T) {
	d := gsim.New(gsim.WithName("race"), gsim.WithShards(4))
	if _, err := d.LoadText(strings.NewReader(chainText("seed", 40))); err != nil {
		t.Fatal(err)
	}
	q := d.NewGraph("q")
	q.AddVertex("L0")
	q.AddVertex("L1")
	q.AddVertex("L2")
	if err := q.AddEdge(0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	query := q.Query()

	const (
		writers    = 4
		perWriter  = 30
		searchers  = 4
		perScanner = 15
	)
	start := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, writers+searchers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []int
			for i := 0; i < perWriter; i++ {
				switch {
				case len(mine) > 2 && rng.Intn(3) == 0:
					id := mine[rng.Intn(len(mine))]
					// Deleting an ID another iteration already removed is
					// fine — ErrNotFound is the API answer, not a failure.
					d.Delete(id)
				case len(mine) > 0 && rng.Intn(3) == 0:
					b := d.NewGraph(fmt.Sprintf("wu%d_%d", w, i))
					b.AddVertex("L0")
					b.AddVertex("L3")
					b.Update(mine[rng.Intn(len(mine))])
				default:
					b := d.NewGraph(fmt.Sprintf("w%d_%d", w, i))
					b.AddVertex("L0")
					b.AddVertex("L1")
					if err := b.AddEdge(0, 1, "x"); err != nil {
						errc <- err
						return
					}
					id, err := b.Store()
					if err != nil {
						errc <- err
						return
					}
					mine = append(mine, id)
				}
			}
		}(w)
	}
	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			<-start
			var lastEpoch uint64
			for i := 0; i < perScanner; i++ {
				opt := gsim.SearchOptions{Method: gsim.LSAP, Tau: 2, Workers: 2, Prefilter: i%2 == 0}
				matches := 0
				scanned, err := d.SearchStream(context.Background(), query, opt, func(m gsim.Match) bool {
					matches++
					return true
				})
				if err != nil {
					errc <- fmt.Errorf("searcher %d: %w", s, err)
					return
				}
				if matches > scanned {
					errc <- fmt.Errorf("searcher %d: %d matches from %d scanned", s, matches, scanned)
					return
				}
				if e := d.Epoch(); e < lastEpoch {
					errc <- fmt.Errorf("searcher %d: epoch regressed %d → %d", s, lastEpoch, e)
					return
				} else {
					lastEpoch = e
				}
			}
		}(s)
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// Final reconciliation: a fresh search scans exactly Len graphs.
	res, err := d.Search(query, gsim.SearchOptions{Method: gsim.LSAP, Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != d.Len() {
		t.Fatalf("final scan covered %d of %d graphs", res.Scanned, d.Len())
	}
}

// TestStoreAllIDsExactUnderConcurrentStore is the regression for the
// Commit ID race: the contiguous ID run a batch reports must address
// exactly the batch's graphs even while single Stores race it on the
// same sequence.
func TestStoreAllIDsExactUnderConcurrentStore(t *testing.T) {
	d := gsim.New(gsim.WithName("idrace"), gsim.WithShards(4))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b := d.NewGraph(fmt.Sprintf("solo%d", i))
			b.AddVertex("L0")
			if _, err := b.Store(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := 0; round < 200; round++ {
		builders := make([]*gsim.GraphBuilder, 3)
		for i := range builders {
			builders[i] = d.NewGraph(fmt.Sprintf("batch%d_%d", round, i))
			builders[i].AddVertex("L1")
		}
		first, err := d.StoreAll(builders)
		if err != nil {
			t.Fatal(err)
		}
		for i := range builders {
			want := fmt.Sprintf("batch%d_%d", round, i)
			got := d.Query(first + i)
			if got.Name() != want {
				t.Fatalf("round %d: id %d resolves to %q, want %q", round, first+i, got.Name(), want)
			}
		}
	}
	close(stop)
	wg.Wait()
}
