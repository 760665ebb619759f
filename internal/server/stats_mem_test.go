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
// together must cost at most a quarter of what a slice-of-slices layout —
// one index.Summary per graph: a 64-byte struct with two slice headers plus
// 4 bytes per label occurrence — would spend on the same graphs.
func TestPrefilterMemoryRatioAtScale(t *testing.T) {
	db := gsim.New(gsim.WithName("memscale"), gsim.WithShards(8))
	rng := rand.New(rand.NewSource(17))
	var sliceBytes int64 // the slice-of-slices footprint of every stored graph
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
			sliceBytes += 64 + 4*int64(n)
			for e := 0; e < n+n/2; e++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v && b.AddEdge(u, v, fmt.Sprintf("e%d", rng.Intn(2))) == nil {
					sliceBytes += 4
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
	if columnar <= 0 {
		t.Fatalf("degenerate byte counts: %+v", pre)
	}
	ratio := float64(sliceBytes) / float64(columnar)
	t.Logf("entries=%d columnar=%dB slice-of-slices=%dB ratio=%.2fx", pre.Entries, columnar, sliceBytes, ratio)
	if ratio < 4 {
		t.Fatalf("memory reduction %.2fx < 4x (columnar %dB vs slice-of-slices %dB over %d entries)",
			ratio, columnar, sliceBytes, pre.Entries)
	}
}
