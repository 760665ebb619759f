package gsim

import (
	"bytes"
	"runtime"
	"testing"

	"gsim/internal/dataset"
	"gsim/internal/graph"
)

// TestResidentBytesPerGraph: a stored graph costs its entry — name,
// packed body, label span, interned branches — and its share of the shard
// columns, postings and dictionaries, not a graph in compressed sparse
// rows. The AASD database graphs at scale 0.1 (3,610), loaded as text
// into two shards, must hold at most 1,400 heap bytes each once the
// postings have settled: ~1,135 with packed entries, 2,562 when every
// entry kept its CSR graph.
func TestResidentBytesPerGraph(t *testing.T) {
	const budget = 1400
	cfg, err := dataset.Profile("aasd", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	for _, i := range ds.DBGraphs {
		if err := graph.Write(&text, ds.Col.Graph(i), ds.Col.Dict); err != nil {
			t.Fatal(err)
		}
	}
	n := len(ds.DBGraphs)
	ds = nil
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	d := New(WithShards(2))
	if _, err := d.LoadText(bytes.NewReader(text.Bytes())); err != nil {
		t.Fatal(err)
	}
	d.store.WaitRebuilds()
	after := heap()
	runtime.KeepAlive(d)
	runtime.KeepAlive(&text)
	if d.Len() != n {
		t.Fatalf("loaded %d graphs, want %d", d.Len(), n)
	}
	per := float64(after-before) / float64(n)
	t.Logf("%d graphs: %.0f heap bytes per stored graph", n, per)
	if per > budget {
		t.Fatalf("%.0f heap bytes per stored graph, budget %d", per, budget)
	}
}
