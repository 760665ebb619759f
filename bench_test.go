// Benchmarks regenerating the paper's evaluation artifacts: one benchmark
// per table and figure (the package overview in doc.go maps the paper's
// sections to modules; `go run ./cmd/experiments -list` enumerates the
// artifact ids), plus ablation benches for the repository's own design
// decisions. Run everything with:
//
//	go test -bench=. -benchmem
//
// Benchmarks use laptop-sized fixtures; the cmd/experiments tool runs the
// same artifacts at configurable scale. BenchmarkSearchBatch is the CI
// benchmark gate's signal (see cmd/benchgate and BENCH_baseline.json).
package gsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"gsim"
	"gsim/internal/branch"
	"gsim/internal/core"
	"gsim/internal/dataset"
	"gsim/internal/lsap"
	"gsim/internal/metrics"
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
	realFx   *fixture

	synOnce sync.Once
	synFx   map[int]*fixture
)

func realFixture(b *testing.B) *fixture {
	b.Helper()
	realOnce.Do(func() {
		cfg, err := dataset.Profile("grec", 0.04)
		if err != nil {
			panic(err)
		}
		ds, err := dataset.Generate(cfg)
		if err != nil {
			panic(err)
		}
		d := gsim.FromCollection(ds.Col, ds.DBGraphs)
		if err := d.BuildPriors(gsim.OfflineConfig{TauMax: 10, SamplePairs: 8000, Seed: 3}); err != nil {
			panic(err)
		}
		realFx = &fixture{ds: ds, db: d}
	})
	return realFx
}

func synFixture(b *testing.B, size int) *fixture {
	b.Helper()
	synOnce.Do(func() {
		synFx = make(map[int]*fixture)
		for i, s := range []int{500, 1000} {
			cfg, err := dataset.SynSubset("syn1", s, 8, int64(400+i))
			if err != nil {
				panic(err)
			}
			ds, err := dataset.Generate(cfg)
			if err != nil {
				panic(err)
			}
			d := gsim.FromCollection(ds.Col, ds.DBGraphs)
			if err := d.BuildPriors(gsim.OfflineConfig{TauMax: 30, SamplePairs: 2000, Seed: 4}); err != nil {
				panic(err)
			}
			synFx[s] = &fixture{ds: ds, db: d}
		}
	})
	fx, ok := synFx[size]
	if !ok {
		b.Fatalf("no syn fixture of size %d", size)
	}
	return fx
}

func searchBench(b *testing.B, fx *fixture, opt gsim.SearchOptions) {
	b.Helper()
	q := fx.db.Query(fx.ds.Queries[0])
	// One untimed search warms the per-size models and Jeffreys priors:
	// those are offline artifacts (Table V), not per-query cost.
	if _, err := fx.db.Search(q, opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.db.Search(q, opt); err != nil {
			b.Fatal(err)
		}
	}
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
			queries[i] = fx.db.Query(fx.ds.Queries[i%len(fx.ds.Queries)])
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
	corpusOnce sync.Once
	corpusDB   *gsim.Database
	corpusQs   []*gsim.Query
)

// corpusFixture is the repository benchmark's served corpus, in process:
// the first 30,000 database graphs of the aasd profile stored one by one
// (a full scan, not an active subset), priors fitted as gsimd fits them
// at boot, and eight of the held-out query graphs.
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
// serving layer, cold (caching disabled: every request pays a full scan)
// vs hot (the repeated query is served from the epoch-versioned result
// cache). The pair is the second CI gate signal: cold tracks the serving
// overhead on top of the library search, hot tracks the cache fast path.
func BenchmarkServerSearch(b *testing.B) {
	fx := batchFixture(b)
	qg := fx.ds.Col.Graph(fx.ds.Queries[0])
	req := struct {
		Graph struct {
			Vertices []string `json:"vertices"`
			Edges    []struct {
				U     int    `json:"u"`
				V     int    `json:"v"`
				Label string `json:"label"`
			} `json:"edges"`
		} `json:"graph"`
		Tau   int     `json:"tau"`
		Gamma float64 `json:"gamma"`
	}{Tau: 3, Gamma: 0.5}
	for v := 0; v < qg.NumVertices(); v++ {
		req.Graph.Vertices = append(req.Graph.Vertices, fx.ds.Col.Dict.Name(qg.VertexLabel(v)))
	}
	for _, e := range qg.Edges() {
		req.Graph.Edges = append(req.Graph.Edges, struct {
			U     int    `json:"u"`
			V     int    `json:"v"`
			Label string `json:"label"`
		}{int(e.U), int(e.V), fx.ds.Col.Dict.Name(e.Label)})
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		entries int
	}{{"cold", 0}, {"hot", 256}} {
		b.Run("cache="+mode.name, func(b *testing.B) {
			h := server.New(server.Config{DB: fx.db, CacheEntries: mode.entries}).Handler()
			// One untimed request warms the offline artifacts (and, hot,
			// the cache entry itself).
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/search", bytes.NewReader(body)))
			if rec.Code != 200 {
				b.Fatalf("warmup status %d: %s", rec.Code, rec.Body.String())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/search", bytes.NewReader(body)))
				if rec.Code != 200 {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}

// ---- Table III ----------------------------------------------------------

func BenchmarkTable3_DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, err := dataset.Profile("grec", 0.02)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Seed = int64(i)
		ds, err := dataset.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = ds.Col.Stats()
	}
}

// ---- Table IV: GBD prior -----------------------------------------------

func BenchmarkTable4_GBDPrior(b *testing.B) {
	fx := realFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples := fx.ds.Col.SamplePairGBDs(8000, int64(i))
		if _, err := core.FitGBDPrior(samples, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Table V / Fig. 6: GED (Jeffreys) prior ------------------------------

func BenchmarkTable5_GEDPrior(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := core.NewModel(50, core.Params{LV: 20, LE: 6, TauMax: 10})
		_ = m.GEDPrior()
	}
}

func BenchmarkFig6_JeffreysPrior(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, v := range []int{10, 100, 1000, 10000} {
			m := core.NewModel(v, core.Params{LV: 20, LE: 6, TauMax: 10})
			_ = m.GEDPrior()
		}
	}
}

// ---- Fig. 5: GMM fit -----------------------------------------------------

func BenchmarkFig5_GMMFit(b *testing.B) {
	fx := realFixture(b)
	samples := fx.ds.Col.SamplePairGBDs(8000, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prob.FitGMM(samples, prob.GMMConfig{K: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig. 7: query time on real data -------------------------------------

func BenchmarkFig7_QueryGBDA(b *testing.B) {
	searchBench(b, realFixture(b), gsim.SearchOptions{Method: gsim.GBDA, Tau: 5, Gamma: 0.9})
}

func BenchmarkFig7_QueryLSAP(b *testing.B) {
	searchBench(b, realFixture(b), gsim.SearchOptions{Method: gsim.LSAP, Tau: 5})
}

func BenchmarkFig7_QueryGreedySort(b *testing.B) {
	searchBench(b, realFixture(b), gsim.SearchOptions{Method: gsim.GreedySort, Tau: 5})
}

func BenchmarkFig7_QuerySeriation(b *testing.B) {
	searchBench(b, realFixture(b), gsim.SearchOptions{Method: gsim.Seriation, Tau: 5})
}

// ---- Figs. 8-9: query time vs graph size ---------------------------------

func BenchmarkFig8_GBDASize(b *testing.B) {
	for _, size := range []int{500, 1000} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			searchBench(b, synFixture(b, size), gsim.SearchOptions{Method: gsim.GBDA, Tau: 20, Gamma: 0.8})
		})
	}
}

func BenchmarkFig8_GreedySortSize(b *testing.B) {
	for _, size := range []int{500, 1000} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			searchBench(b, synFixture(b, size), gsim.SearchOptions{Method: gsim.GreedySort, Tau: 20})
		})
	}
}

func BenchmarkFig9_SeriationSize(b *testing.B) {
	for _, size := range []int{500, 1000} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			searchBench(b, synFixture(b, size), gsim.SearchOptions{Method: gsim.Seriation, Tau: 20})
		})
	}
}

// ---- Figs. 10-21: effectiveness on real data ------------------------------

func effectBench(b *testing.B, opt gsim.SearchOptions) {
	fx := realFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var agg metrics.Counts
		for _, qi := range fx.ds.Queries[:2] {
			res, err := fx.db.Search(fx.db.Query(qi), opt)
			if err != nil {
				b.Fatal(err)
			}
			agg.Add(metrics.Evaluate(res.Indexes(), fx.ds.TruthSet(qi, opt.Tau)))
		}
		if agg.F1() < 0 {
			b.Fatal("impossible F1")
		}
	}
}

func BenchmarkFig10_13_Precision(b *testing.B) {
	effectBench(b, gsim.SearchOptions{Method: gsim.GBDA, Tau: 5, Gamma: 0.9})
}

func BenchmarkFig14_17_Recall(b *testing.B) {
	effectBench(b, gsim.SearchOptions{Method: gsim.LSAP, Tau: 5})
}

func BenchmarkFig18_21_F1(b *testing.B) {
	effectBench(b, gsim.SearchOptions{Method: gsim.GreedySort, Tau: 5})
}

// ---- Figs. 22-29: GBDA variants -------------------------------------------

func BenchmarkFig22_25_V1(b *testing.B) {
	effectBench(b, gsim.SearchOptions{Method: gsim.GBDAV1, Tau: 5, Gamma: 0.9, V1Sample: 50})
}

func BenchmarkFig26_29_V2(b *testing.B) {
	effectBench(b, gsim.SearchOptions{Method: gsim.GBDAV2, Tau: 5, Gamma: 0.9, V2Weight: 0.5})
}

// ---- Figs. 31-42: effectiveness vs size on Syn-1 --------------------------

func synEffectBench(b *testing.B, opt gsim.SearchOptions) {
	fx := synFixture(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var agg metrics.Counts
		qi := fx.ds.Queries[0]
		res, err := fx.db.Search(fx.db.Query(qi), opt)
		if err != nil {
			b.Fatal(err)
		}
		agg.Add(metrics.Evaluate(res.Indexes(), fx.ds.TruthSet(qi, opt.Tau)))
	}
}

func BenchmarkFig31_34_SynPrecision(b *testing.B) {
	synEffectBench(b, gsim.SearchOptions{Method: gsim.GBDA, Tau: 15, Gamma: 0.7})
}

func BenchmarkFig35_38_SynRecall(b *testing.B) {
	synEffectBench(b, gsim.SearchOptions{Method: gsim.GBDA, Tau: 20, Gamma: 0.7})
}

func BenchmarkFig39_42_SynF1(b *testing.B) {
	synEffectBench(b, gsim.SearchOptions{Method: gsim.GreedySort, Tau: 20})
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
	fx := synFixture(b, 1000)
	e1 := fx.ds.Col.Entry(0)
	e2 := fx.ds.Col.Entry(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = branch.GBDIDs(e1.Branches, e2.Branches)
	}
}

func BenchmarkAblation_BranchKeyRecompute(b *testing.B) {
	fx := synFixture(b, 1000)
	g1 := fx.ds.Col.Graph(0)
	g2 := fx.ds.Col.Graph(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = branch.GBDGraphs(g1, g2)
	}
}

// GMM component count sweep.
func BenchmarkAblation_GMMComponents(b *testing.B) {
	fx := realFixture(b)
	samples := fx.ds.Col.SamplePairGBDs(4000, 5)
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
	fx := realFixture(b)
	g1 := fx.ds.Col.Graph(0)
	g2 := fx.ds.Col.Graph(1)
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
// one linear merge of two 1000-vertex interned ID multisets (uint32
// compares, 4 bytes per vertex). Gated in CI alongside the posterior
// kernel — the two halves of the pair cost.
func BenchmarkKernel_GBD1000(b *testing.B) {
	fx := synFixture(b, 1000)
	a := fx.ds.Col.Entry(0).Branches
	c := fx.ds.Col.Entry(2).Branches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = branch.GBDIDs(a, c)
	}
}

// BenchmarkKernel_GBDBounded measures the intersection the posterior
// scorers actually run: branch.IntersectAtLeastIDs with need = max size −
// 3τ̂ (τ̂ = 3), one held-out query against every stored graph of an
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
	q := ds.Col.Entry(ds.Queries[0]).Branches
	stored := make([]branch.IDs, len(ds.DBGraphs))
	near := 0
	for i, idx := range ds.DBGraphs {
		stored[i] = ds.Col.Entry(idx).Branches
		if _, ok := branch.IntersectAtLeastIDs(q, stored[i], max(len(q), len(stored[i]))-9); ok {
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
		n, _ := branch.IntersectAtLeastIDs(q, e, max(len(q), len(e))-9)
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
	fx := synFixture(b, 1000)
	ws := core.NewWorkspace(core.Params{LV: 20, LE: 10, TauMax: 30})
	samples := fx.ds.Col.SamplePairGBDs(2000, 6)
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
	fx := synFixture(b, 1000)
	g := fx.ds.Col.Graph(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = seriation.Order(g)
	}
}
