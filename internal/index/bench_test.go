package index

import (
	"math/rand"
	"testing"

	"gsim/internal/branch"
	"gsim/internal/dataset"
	"gsim/internal/db"
	"gsim/internal/graph"
)

func benchDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name: "bx", NumGraphs: 200, MinV: 15, MaxV: 40, ExtraPerV: 0.1,
		ScaleFree: true, LV: 30, LE: 4, PoolSize: 6, ClusterSize: 20,
		ModSlots: 8, GuardTau: 10, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkLowerBoundPair times the oracle PairLowerBound: entry 0
// against every other entry of the set in turn.
func BenchmarkLowerBoundPair(b *testing.B) {
	ds := benchDataset(b)
	entries := ds.Col.Entries()
	sums := make([]Summary, len(entries))
	for i, e := range entries {
		sums[i] = Summarize(e.G.Unpack())
	}
	qb := entries[0].Branches.AppendTo(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := 1 + i%(len(entries)-1)
		_ = PairLowerBound(sums[0], qb, sums[j], entries[j])
	}
}

// BenchmarkPrefilterScan is the CI-gated columnar hot loop: one prepared
// query evaluated against 10k stored entries through View.Prunable —
// signature word first, span fallback only when undecided. Zero
// allocations per scan is part of the gate.
func BenchmarkPrefilterScan(b *testing.B) {
	dict := graph.NewLabels()
	rng := rand.New(rand.NewSource(7))
	col := db.New("bench")
	const n = 10000
	for i := 0; i < n; i++ {
		col.Add(randomGraph(rng, dict, 6+rng.Intn(20)))
	}
	entries := col.Entries()
	v := ViewOf(entries)
	qg := randomGraph(rng, dict, 12)
	qp := PrepareQuery(qg)
	qids := col.BranchDict().ResolveMultiset(branch.MultisetOf(qg))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pruned := 0
		for pos, e := range entries {
			if v.Prunable(&qp, qids, e, pos, 4) {
				pruned++
			}
		}
		if pruned == 0 {
			b.Fatal("nothing pruned: benchmark would measure the wrong path")
		}
	}
}

// BenchmarkBuildPostings times one shard's postings rebuild over 15,000
// AIDS-shaped graphs, the size of a shard of the benchmark corpus on two
// shards.
func BenchmarkBuildPostings(b *testing.B) {
	cfg, err := dataset.Profile("aids", 0.4)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	entries := ds.Col.Entries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildPostings(entries)
	}
	b.ReportMetric(float64(len(entries)), "graphs")
}
