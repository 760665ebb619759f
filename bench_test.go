// Benchmarks for the search path, the serving layer, recovery, the hot
// kernels and ablations of the repository's own design decisions. Run
// everything with:
//
//	go test -bench=. -benchmem
//
// The paper's tables and figures are regenerated by cmd/experiments
// (`go run ./cmd/experiments -list` enumerates the artifact ids), not
// re-timed here. The benchmarks whose comments say they are gated run in
// CI's bench job (its regex is in .github/workflows/ci.yml), and
// cmd/benchgate compares them against BENCH_baseline.json.
package gsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"gsim"
	"gsim/internal/branch"
	"gsim/internal/core"
	"gsim/internal/dataset"
	"gsim/internal/graph"
	"gsim/internal/lsap"
	"gsim/internal/prob"
	"gsim/internal/seriation"
	"gsim/internal/server"
)

// ---- fixtures ----------------------------------------------------------

type fixture struct {
	ds *dataset.Dataset
	db *gsim.Database
}

var (
	realOnce sync.Once
	realDS   *dataset.Dataset

	synOnce sync.Once
	synDS   *dataset.Dataset
)

// realDataset is the GREC profile at 4% scale, behind the GMM and LSAP
// ablations.
func realDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	realOnce.Do(func() {
		cfg, err := dataset.Profile("grec", 0.04)
		if err != nil {
			panic(err)
		}
		if realDS, err = dataset.Generate(cfg); err != nil {
			panic(err)
		}
	})
	return realDS
}

// synDataset is a Syn-1 subset of 1000-vertex graphs, behind the branch-key
// ablations and the kernel benchmarks.
func synDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	synOnce.Do(func() {
		cfg, err := dataset.SynSubset("syn1", 1000, 8, 401)
		if err != nil {
			panic(err)
		}
		if synDS, err = dataset.Generate(cfg); err != nil {
			panic(err)
		}
	})
	return synDS
}

// ---- batches -------------------------------------------------------------

var (
	batchOnce sync.Once
	batchFx   *fixture
)

// batchFixture is the fixed corpus behind BenchmarkSearchBatch and the CI
// benchmark gate: a deterministic laptop-sized cluster dataset with a
// query workload deep enough for the 64-query variants.
func batchFixture(b *testing.B) *fixture {
	b.Helper()
	batchOnce.Do(func() {
		ds, err := dataset.Generate(dataset.Config{
			Name: "bench-batch", NumGraphs: 160, QueryFraction: 0.45,
			MinV: 7, MaxV: 10, ExtraPerV: 0.25, ScaleFree: true,
			LV: 30, LE: 3, PoolSize: 5, ClusterSize: 10, ModSlots: 4,
			GuardTau: 5, Seed: 1234,
		})
		if err != nil {
			panic(err)
		}
		d := gsim.FromCollection(ds.Col, ds.DBGraphs)
		if err := d.BuildPriors(gsim.OfflineConfig{TauMax: 5, SamplePairs: 4000, Seed: 2}); err != nil {
			panic(err)
		}
		batchFx = &fixture{ds: ds, db: d}
	})
	return batchFx
}

// BenchmarkSearchBatch measures one whole-batch search per iteration at
// each workload size — the stable signal the CI bench job gates on
// (cmd/benchgate vs BENCH_baseline.json).
func BenchmarkSearchBatch(b *testing.B) {
	fx := batchFixture(b)
	for _, nq := range []int{1, 8, 64} {
		queries := make([]*gsim.Query, nq)
		for i := range queries {
			queries[i] = gsim.CollectionQuery(fx.ds.Col, fx.ds.Queries[i%len(fx.ds.Queries)])
		}
		b.Run(fmt.Sprintf("queries=%d", nq), func(b *testing.B) {
			opt := gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Gamma: 0.5}
			ctx := context.Background()
			// One untimed batch warms the per-size models and
			// Jeffreys priors (offline artifacts, not batch cost).
			if _, err := fx.db.SearchBatch(ctx, queries, opt); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fx.db.SearchBatch(ctx, queries, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var (
	corpusOnce   sync.Once
	corpusDB     *gsim.Database
	corpusQs     []*gsim.Query
	corpusBodies [][]byte
)

// corpusFixture is the repository benchmark's served corpus, in process:
// the first 30,000 database graphs of the aasd profile stored one by one,
// priors fitted as gsimd fits them at boot, and eight of the held-out
// query graphs, also kept as the /v1/search bodies the repository
// benchmark posts on its search-prefilter workload (corpusBodies).
func corpusFixture(b *testing.B) (*gsim.Database, []*gsim.Query) {
	b.Helper()
	corpusOnce.Do(func() {
		cfg, err := dataset.Profile("aasd", 1.0)
		if err != nil {
			panic(err)
		}
		cfg.Seed = 1
		ds, err := dataset.Generate(cfg)
		if err != nil {
			panic(err)
		}
		d := gsim.New(gsim.WithName("corpus"))
		build := func(gb *gsim.GraphBuilder, idx int) *gsim.GraphBuilder {
			g := ds.Col.Graph(idx)
			for v := 0; v < g.NumVertices(); v++ {
				gb.AddVertex(ds.Col.Dict.Name(g.VertexLabel(v)))
			}
			for _, e := range g.Edges() {
				if err := gb.AddEdge(int(e.U), int(e.V), ds.Col.Dict.Name(e.Label)); err != nil {
					panic(err)
				}
			}
			return gb
		}
		for _, idx := range ds.DBGraphs[:30000] {
			if _, err := build(d.NewGraph(ds.Col.Graph(idx).Name), idx).Store(); err != nil {
				panic(err)
			}
		}
		if err := d.BuildPriors(gsim.OfflineConfig{TauMax: 5, SamplePairs: 20000}); err != nil {
			panic(err)
		}
		corpusDB = d
		for _, idx := range ds.Queries[:8] {
			corpusQs = append(corpusQs, build(d.NewQuery("q"), idx).Query())
			body, err := json.Marshal(searchBody(ds, idx, 0.9, true))
			if err != nil {
				panic(err)
			}
			corpusBodies = append(corpusBodies, body)
		}
	})
	return corpusDB, corpusQs
}

// BenchmarkSearchPrefilterWorkers is the paper configuration (GBDA, τ̂ = 3,
// priors, admissible prefilter) on the benchmark corpus, where ~99.97% of
// entries are pruned, at one and at two scan workers. CI gates both: the
// pruned path once ran 1.85× slower on two workers than on one — two
// shared counters bumped per pruned entry — and no benchmark saw it.
// benchgate compares allocation counts only against a zero baseline, so
// the budget — what a search cost before the scan counted per range — is
// checked here.
func BenchmarkSearchPrefilterWorkers(b *testing.B) {
	const maxAllocs = 38
	d, queries := corpusFixture(b)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprint(workers), func(b *testing.B) {
			opt := gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Prefilter: true, Workers: workers}
			search := func(i int) {
				if _, err := d.Search(queries[i%len(queries)], opt); err != nil {
					b.Fatal(err)
				}
			}
			for i := range queries { // warm the projection and the posterior table
				search(i)
			}
			i := 0
			if a := testing.AllocsPerRun(4*len(queries), func() { search(i); i++ }); a > maxAllocs {
				b.Fatalf("%.0f allocations per search, budget %d", a, maxAllocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				search(i)
			}
		})
	}
}

// BenchmarkSearchAfterWrite is the write→read path of a served database:
// each op stores one small graph into the BenchmarkSearchPrefilterWorkers
// corpus and then runs one prefiltered search, which must read a cut the
// write just moved. CI gates it. The stored graphs are deleted, untimed,
// after each run, so every run starts from the same 30,000 graphs.
func BenchmarkSearchAfterWrite(b *testing.B) {
	d, queries := corpusFixture(b)
	opt := gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Prefilter: true}
	for i := range queries { // warm the prefilter columns and the posterior table
		if _, err := d.Search(queries[i], opt); err != nil {
			b.Fatal(err)
		}
	}
	stored := make([]int, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := d.NewGraph(fmt.Sprintf("w%d", i))
		for v := 0; v < 6; v++ {
			g.AddVertex(fmt.Sprintf("W%d", (i+v)%5))
		}
		for v := 0; v+1 < 6; v++ {
			if err := g.AddEdge(v, v+1, "w"); err != nil {
				b.Fatal(err)
			}
		}
		id, err := g.Store()
		if err != nil {
			b.Fatal(err)
		}
		stored = append(stored, id)
		if _, err := d.Search(queries[i%len(queries)], opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, id := range stored {
		if err := d.Delete(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchScanCorpus is the unfiltered path on the benchmark
// corpus, the search-scan workload in process: GBDA at τ̂ = 3, γ = 0.9 as
// a threshold search and as a top-10, at one and at two scan workers.
// Each reads the posting lists of the query's rarest branches and scores
// the few hundred graphs they name; the rest score 0 unread. CI gates it.
func BenchmarkSearchScanCorpus(b *testing.B) {
	d, queries := corpusFixture(b)
	for _, workers := range []int{1, 2} {
		searchOpt := gsim.SearchOptions{Method: gsim.GBDA, Tau: 3, Gamma: 0.9, Workers: workers}
		topOpt := gsim.TopKOptions{Method: gsim.GBDA, K: 10, Tau: 3, Workers: workers}
		for _, form := range []struct {
			name string
			run  func(q *gsim.Query) error
		}{
			{"search", func(q *gsim.Query) error { _, err := d.Search(q, searchOpt); return err }},
			{"topk", func(q *gsim.Query) error { _, err := d.SearchTopK(q, topOpt); return err }},
		} {
			b.Run(fmt.Sprintf("%s/%d", form.name, workers), func(b *testing.B) {
				for _, q := range queries { // warm the projection and the posterior table
					if err := form.run(q); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := form.run(queries[i%len(queries)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkShardedIngest measures parallel Store throughput into the
// sharded store (one small labeled graph per op, built and interned from
// scratch) at one shard — every insert serialises behind a single
// mutation lock, the pre-shard layout — versus the default GOMAXPROCS
// partitioning, where concurrent Stores land on different shards and only
// contend on the shared dictionaries. CI gates both; on multi-core hosts
// their ratio is the concurrency win the sharded collection exists for
// (on a single-core runner the two coincide — GOMAXPROCS shards is one).
func BenchmarkShardedIngest(b *testing.B) {
	for _, tc := range []struct {
		name    string
		shards  int
		durable bool
	}{{"shards=1", 1, false}, {"shards=max", 0, false}, {"shards=max+wal", 0, true}} {
		b.Run(tc.name, func(b *testing.B) {
			var d *gsim.Database
			if tc.durable {
				// The WAL-enabled gate: group commit under FsyncInterval must
				// not serialise sharded ingest — journaling happens inside the
				// owning shard's critical section, syncing outside every lock.
				var err error
				d, err = gsim.Open(b.TempDir(), gsim.WithShards(tc.shards),
					gsim.WithFsyncPolicy(gsim.FsyncInterval), gsim.WithAutoCheckpoint(0))
				if err != nil {
					b.Fatal(err)
				}
			} else {
				d = gsim.New(gsim.WithName("ingest"), gsim.WithShards(tc.shards))
			}
			var seq atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					g := d.NewGraph(fmt.Sprintf("g%d", i))
					for v := 0; v < 6; v++ {
						g.AddVertex(fmt.Sprintf("L%d", (int(i)+v)%5))
					}
					for v := 0; v+1 < 6; v++ {
						if err := g.AddEdge(v, v+1, "e"); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := g.Store(); err != nil {
						b.Fatal(err)
					}
				}
			})
			if tc.durable {
				b.StopTimer()
				if err := d.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var (
	loadTextOnce sync.Once
	loadTextData []byte
)

// BenchmarkLoadText bulk-loads the repository benchmark's base corpus —
// the first 30,000 database graphs of the aasd profile as .gsim text, the
// file gsimd reads at boot — into a fresh database per iteration, and
// reports the cost per graph.
func BenchmarkLoadText(b *testing.B) {
	loadTextOnce.Do(func() {
		cfg, err := dataset.Profile("aasd", 1.0)
		if err != nil {
			panic(err)
		}
		cfg.Seed = 1
		ds, err := dataset.Generate(cfg)
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		for _, idx := range ds.DBGraphs[:30000] {
			if err := graph.Write(&buf, ds.Col.Graph(idx), ds.Col.Dict); err != nil {
				panic(err)
			}
		}
		loadTextData = buf.Bytes()
	})
	b.ReportAllocs()
	b.ResetTimer()
	graphs := 0
	for i := 0; i < b.N; i++ {
		d := gsim.New(gsim.WithName("load"))
		n, err := d.LoadText(bytes.NewReader(loadTextData))
		if err != nil {
			b.Fatal(err)
		}
		graphs += n
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(graphs), "us/graph")
}

// BenchmarkGraphBuilder builds a graph edge by edge through GraphBuilder
// and reports the cost per edge at 1,000 and 100,000 edges: a builder
// that went quadratic (an edit of the compact graph per edge) would show
// as a per-edge cost rising with the size.
func BenchmarkGraphBuilder(b *testing.B) {
	labels := []string{"A", "B", "C", "D"}
	for _, edges := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("edges=%d", edges), func(b *testing.B) {
			d := gsim.New()
			n := edges / 2 // a ring and its chords v–v+2: two edges a vertex
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := d.NewQuery("ring")
				for v := 0; v < n; v++ {
					g.AddVertex(labels[v%len(labels)])
				}
				for v := 0; v < n; v++ {
					if g.AddEdge(v, (v+1)%n, "e") != nil || g.AddEdge(v, (v+2)%n, "f") != nil {
						b.Fatal("edge rejected")
					}
				}
				_ = g.Query()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*edges), "ns/edge")
		})
	}
}

// BenchmarkRecovery measures a full 100k-graph restart through gsim.Open:
// parallel segment decode, parallel branch-multiset interning, bulk
// per-shard install. Gated in CI. The fixture is built once per run with
// the WAL off (bulk load) and closed, so each Open is a pure cold-start
// recovery.
func BenchmarkRecovery(b *testing.B) {
	const n = 100_000
	base := b.TempDir()
	dir := filepath.Join(base, "data")
	d, err := gsim.Open(dir, gsim.WithoutWAL())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		g := d.NewGraph(fmt.Sprintf("g%d", i))
		for v := 0; v < 6; v++ {
			g.AddVertex(fmt.Sprintf("L%d", (i+v)%7))
		}
		for v := 0; v+1 < 6; v++ {
			if err := g.AddEdge(v, v+1, "e"); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := g.Store(); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run("segments", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// WithoutWAL keeps the reopen read-only apart from the manifest
			// bump, so iterations do not grow the directory.
			r, err := gsim.Open(dir, gsim.WithoutWAL())
			if err != nil {
				b.Fatal(err)
			}
			if r.Len() != n {
				b.Fatalf("recovered %d graphs, want %d", r.Len(), n)
			}
		}
	})
}

// BenchmarkServerSearch measures one /v1/search request through the HTTP
// serving layer. scan posts one unfiltered query, a full scan per
// request: the serving overhead on top of the library search, the second
// CI gate signal.
func BenchmarkServerSearch(b *testing.B) {
	fx := batchFixture(b)
	body, err := json.Marshal(searchBody(fx.ds, fx.ds.Queries[0], 0.5, false))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("scan", func(b *testing.B) {
		h := server.New(server.Config{DB: fx.db}).Handler()
		// One untimed request warms the offline artifacts.
		serveSearch(b, h, body)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveSearch(b, h, body)
		}
	})
	// corpus posts the repository benchmark's prefiltered bodies for the
	// corpusFixture queries and fails when a request allocates
	// more than its budget: room for the search and for building the query
	// graph in one pass, none for reflective JSON decoding (~170
	// allocations a request), a branch key per vertex (~290) or a heap
	// adjacency list per query vertex (~120).
	b.Run("corpus", func(b *testing.B) {
		const maxAllocs = 120
		d, _ := corpusFixture(b)
		h := server.New(server.Config{DB: d}).Handler()
		for _, body := range corpusBodies { // warm the projection and the posterior table
			serveSearch(b, h, body)
		}
		i := 0
		serve := func() { serveSearch(b, h, corpusBodies[i%len(corpusBodies)]); i++ }
		if a := testing.AllocsPerRun(4*len(corpusBodies), serve); a > maxAllocs {
			b.Fatalf("%.0f allocations per request, budget %d", a, maxAllocs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve()
		}
	})
}

// searchBody is the /v1/search body for collection graph idx of ds.
func searchBody(ds *dataset.Dataset, idx int, gamma float64, prefilter bool) any {
	type edge struct {
		U     int    `json:"u"`
		V     int    `json:"v"`
		Label string `json:"label"`
	}
	type graph struct {
		Name     string   `json:"name,omitempty"`
		Vertices []string `json:"vertices"`
		Edges    []edge   `json:"edges"`
	}
	g := ds.Col.Graph(idx)
	wg := graph{Name: g.Name}
	for v := 0; v < g.NumVertices(); v++ {
		wg.Vertices = append(wg.Vertices, ds.Col.Dict.Name(g.VertexLabel(v)))
	}
	for _, e := range g.Edges() {
		wg.Edges = append(wg.Edges, edge{int(e.U), int(e.V), ds.Col.Dict.Name(e.Label)})
	}
	return struct {
		Graph     graph   `json:"graph"`
		Tau       int     `json:"tau"`
		Gamma     float64 `json:"gamma"`
		Prefilter bool    `json:"prefilter,omitempty"`
	}{wg, 3, gamma, prefilter}
}

// serveSearch posts body to /v1/search and fails unless it answers 200.
func serveSearch(b *testing.B, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/search", bytes.NewReader(body)))
	if rec.Code != 200 {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
}

// ---- ablations -------------------------------------------------------------

// Λ1 with the Eq. 20-23 table reuse vs the naive quadruple sum.
func BenchmarkAblation_Lambda1Reuse(b *testing.B) {
	m := core.NewModel(200, core.Params{LV: 20, LE: 6, TauMax: 10})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Lambda1All(i % 8)
	}
}

func BenchmarkAblation_Lambda1Naive(b *testing.B) {
	m := core.NewModel(200, core.Params{LV: 20, LE: 6, TauMax: 10})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for tau := 0; tau <= 10; tau++ {
			_ = m.Lambda1Naive(tau, i%8)
		}
	}
}

// Precomputed branch index vs recomputing multisets per comparison.
func BenchmarkAblation_BranchKeyPrecomputed(b *testing.B) {
	ds := synDataset(b)
	q := ds.Col.Entry(0).Branches.AppendTo(nil)
	e := ds.Col.Entry(1).Branches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = branch.GBDIDs(q, e)
	}
}

func BenchmarkAblation_BranchKeyRecompute(b *testing.B) {
	ds := synDataset(b)
	g1 := ds.Col.Graph(0)
	g2 := ds.Col.Graph(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = branch.GBDGraphs(g1, g2)
	}
}

// GMM component count sweep.
func BenchmarkAblation_GMMComponents(b *testing.B) {
	ds := realDataset(b)
	samples := ds.Col.SamplePairGBDs(4000, 5)
	for _, k := range []int{1, 2, 3, 5} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prob.FitGMM(samples, prob.GMMConfig{K: k}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Exact Hungarian vs greedy-sort on identical branch cost matrices.
func BenchmarkAblation_LSAPSolvers(b *testing.B) {
	ds := realDataset(b)
	g1 := ds.Col.Graph(0)
	g2 := ds.Col.Graph(1)
	m := lsap.CostMatrix(g1, g2, lsap.FullCost)
	b.Run("hungarian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = lsap.Solve(m)
		}
	})
	b.Run("greedysort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = lsap.GreedySort(m)
		}
	})
}

// ---- kernel micro-benches --------------------------------------------------

// BenchmarkKernel_GBD1000 measures the per-pair branch-distance kernel:
// one linear merge of a 1000-vertex query's interned IDs against a
// 1000-vertex stored multiset, decoded from its uvarint gaps as the merge
// walks. Gated in CI alongside the posterior kernel — the two halves of
// the pair cost.
func BenchmarkKernel_GBD1000(b *testing.B) {
	ds := synDataset(b)
	a := ds.Col.Entry(0).Branches.AppendTo(nil)
	c := ds.Col.Entry(2).Branches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = branch.GBDIDs(a, c)
	}
}

// BenchmarkKernel_GBDBounded measures the intersection the posterior
// scorers actually run: branch.IntersectAtLeastIDs, a query's IDs against
// a stored graph's coded multiset, with need = max size − core.Support(τ̂)
// (τ̂ = 3), one held-out query against every stored graph of an
// AASD-shaped corpus in turn — mostly far pairs decided by the sizes or
// within a few merge steps, and the query's own cluster as the few near
// ones that merge to the end. ns/op is per pair; 0 allocs/op is gated.
func BenchmarkKernel_GBDBounded(b *testing.B) {
	cfg, err := dataset.Profile("aasd", 0.02)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	q := ds.Col.Entry(ds.Queries[0]).Branches.AppendTo(nil)
	sup := core.Support(3)
	stored := make([]branch.Coded, len(ds.DBGraphs))
	near := 0
	for i, idx := range ds.DBGraphs {
		stored[i] = ds.Col.Entry(idx).Branches
		if _, ok := branch.IntersectAtLeastIDs(q, stored[i], max(len(q), stored[i].Len())-sup); ok {
			near++
		}
	}
	if near == 0 || near*10 > len(stored) {
		b.Fatalf("%d of %d pairs are near; the mix should be mostly far with a few near", near, len(stored))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, k := 0, 0; i < b.N; i++ {
		e := stored[k]
		if k++; k == len(stored) {
			k = 0
		}
		n, _ := branch.IntersectAtLeastIDs(q, e, max(len(q), e.Len())-sup)
		kernelSink += n
	}
}

// kernelSink keeps the kernel benchmarks' results live.
var kernelSink int

// BenchmarkKernel_Posterior measures the steady-state posterior kernel:
// the (v, ϕ) table lookup every scored pair performs after Prepare has
// built the posterior table — lock-free and 0 allocs/op by design (the
// ReportAllocs figure is the acceptance criterion). The offline table
// build runs untimed, exactly as it lands in a search's prepare step, not
// its per-pair cost.
func BenchmarkKernel_Posterior(b *testing.B) {
	ds := synDataset(b)
	ws := core.NewWorkspace(core.Params{LV: 20, LE: 10, TauMax: 30})
	samples := ds.Col.SamplePairGBDs(2000, 6)
	prior, err := core.FitGBDPrior(samples, 3)
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewSearcher(ws, prior)
	tbl := ws.PosteriorTable(s, 30, []int{1000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tbl.Posterior(1000, i%60)
	}
}

func BenchmarkKernel_SeriationOrder(b *testing.B) {
	ds := synDataset(b)
	g := ds.Col.Graph(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = seriation.Order(g)
	}
}
