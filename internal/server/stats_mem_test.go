package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"gsim"
)

// TestPrefilterMemoryRatioAtScale checks the memory claim of the columnar
// prefilter with the /v1/stats counters as the measurement: at corpus
// scale (100k ~10-vertex graphs; reduced under the race detector, the
// ratio is per-entry and scale-free) the signature + meta + arena columns
// together must cost at most a quarter of what the former slice-of-slices
// Summary layout would spend on the same entries.
func TestPrefilterMemoryRatioAtScale(t *testing.T) {
	db := gsim.New(gsim.WithName("memscale"), gsim.WithShards(8))
	rng := rand.New(rand.NewSource(17))
	const batch = 2000
	builders := make([]*gsim.GraphBuilder, 0, batch)
	for stored := 0; stored < prefilterMemGraphs; {
		builders = builders[:0]
		for i := 0; i < batch && stored+i < prefilterMemGraphs; i++ {
			b := db.NewGraph(fmt.Sprintf("g%d", stored+i))
			n := 8 + rng.Intn(5)
			for v := 0; v < n; v++ {
				b.AddVertex(fmt.Sprintf("L%d", rng.Intn(3)))
			}
			for e := 0; e < n+n/2; e++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v {
					b.AddEdge(u, v, fmt.Sprintf("e%d", rng.Intn(2)))
				}
			}
			builders = append(builders, b)
		}
		if _, err := db.StoreAll(builders); err != nil {
			t.Fatal(err)
		}
		stored += len(builders)
	}

	// One prefiltered search activates the per-shard stores; the fat query
	// is pruned from everything by the size filter alone, so the scan is a
	// signature sweep.
	q := db.NewQuery("fat")
	for v := 0; v < 80; v++ {
		q.AddVertex(fmt.Sprintf("Q%d", v))
	}
	if _, err := db.Search(q.Query(), gsim.SearchOptions{Method: gsim.GreedySort, Tau: 2, Prefilter: true}); err != nil {
		t.Fatal(err)
	}

	srv := New(Config{DB: db})
	var st statsResponse
	if rec := do(t, srv.Handler(), http.MethodGet, "/v1/stats", nil, &st); rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	pre := st.Prefilter
	if pre.Entries != prefilterMemGraphs {
		t.Fatalf("prefilter covers %d entries, stored %d", pre.Entries, prefilterMemGraphs)
	}
	columnar := pre.SigBytes + pre.MetaBytes + pre.ArenaBytes
	if columnar <= 0 || pre.LegacyEquivBytes <= 0 {
		t.Fatalf("degenerate byte counts: %+v", pre)
	}
	ratio := float64(pre.LegacyEquivBytes) / float64(columnar)
	t.Logf("entries=%d columnar=%dB legacy=%dB ratio=%.2fx", pre.Entries, columnar, pre.LegacyEquivBytes, ratio)
	if ratio < 4 {
		t.Fatalf("memory reduction %.2fx < 4x (columnar %dB vs legacy %dB over %d entries)",
			ratio, columnar, pre.LegacyEquivBytes, pre.Entries)
	}
}
