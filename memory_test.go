package gsim

import (
	"bytes"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"gsim/internal/dataset"
	"gsim/internal/db"
	"gsim/internal/graph"
)

// TestResidentBytesPerGraph: a stored graph costs its entry — name,
// packed body, label span, coded branches — and its share of the shard
// columns, postings and dictionaries, not a graph in compressed sparse
// rows. The AASD database graphs at scale 0.1 (3,610), loaded as text
// into two shards, must hold at most 820 heap bytes each once the
// postings have settled: ~747 with coded branch multisets and postings,
// ~1,130 while each entry held its branch IDs as uint32s and each posting
// a uint32 slot and a uint16 size, 2,562 when every entry kept its CSR
// graph.
func TestResidentBytesPerGraph(t *testing.T) {
	const budget = 820
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
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// Earlier tests' stores that were never closed stay reachable while a
	// shard's quiet timer holds them, settleAfter (250 ms) after their last
	// write and for the build it starts; freed during the measurement, they
	// would read as a negative growth. LoadText commits one batch, which
	// builds both shards' postings before it returns.
	time.Sleep(600 * time.Millisecond)
	before := heap()
	d := New(WithShards(2))
	if _, err := d.LoadText(bytes.NewReader(text.Bytes())); err != nil {
		t.Fatal(err)
	}
	after := heap()
	runtime.KeepAlive(d)
	runtime.KeepAlive(&text)
	if d.Len() != n {
		t.Fatalf("loaded %d graphs, want %d", d.Len(), n)
	}
	if after < before {
		t.Fatalf("heap shrank while loading %d graphs: %d bytes before, %d after", n, before, after)
	}
	per := float64(after-before) / float64(n)
	t.Logf("%d graphs: %.0f heap bytes per stored graph", n, per)
	if per > budget {
		t.Fatalf("%.0f heap bytes per stored graph, budget %d", per, budget)
	}
}

// TestEntrySize: db.Entry fits the 80-byte size class — ID, packed graph,
// coded branches and label span. One more word puts every stored graph's
// entry in the 96-byte class.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(db.Entry{}); n > 80 {
		t.Fatalf("db.Entry is %d bytes, want at most 80", n)
	}
}
