package gsim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gsim/internal/dataset"
	"gsim/internal/graph"
	"gsim/internal/shard"
	"gsim/internal/telemetry"
	"gsim/internal/wal"
)

// loadSerial is LoadText as it was before the pipeline: parse, prepare
// and check one graph at a time on the calling goroutine, then commit.
// LoadText must leave a database exactly as this leaves it.
func loadSerial(d *Database, r io.Reader) (int, error) {
	var batch []shard.Mutation
	if err := graph.ReadEach(r, d.store.Dict(), func(g *graph.Graph) error {
		batch = append(batch, shard.Mutation{Op: wal.OpStore, P: d.store.Prepare(g)})
		return d.fits(len(batch)-1, batch[len(batch)-1].P)
	}); err != nil {
		d.store.Discard(batch)
		return 0, err
	}
	if _, _, _, err := d.store.Commit(telemetry.OpCommit, batch); err != nil {
		return 0, err
	}
	return len(batch), nil
}

// aasdText is the .gsim text of the database graphs of the AASD profile
// at a small scale, the shape the repository benchmark loads.
func aasdText(t *testing.T) []byte {
	t.Helper()
	cfg, err := dataset.Profile("aasd", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 1
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, idx := range ds.DBGraphs {
		if err := graph.Write(&buf, ds.Col.Graph(idx), ds.Col.Dict); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// sameStore fails unless got and want hold the same graphs under the same
// IDs, with the same label and branch dictionaries, the same coded
// multiset, packed body and label span per entry, and byte-identical
// SaveText output.
func sameStore(t *testing.T, got, want *Database) {
	t.Helper()
	if g, w := got.store.Dict().Len(), want.store.Dict().Len(); g != w {
		t.Fatalf("label dictionary holds %d labels, want %d", g, w)
	}
	for id := 0; id < want.store.Dict().Len(); id++ {
		if g, w := got.store.Dict().Name(graph.ID(id)), want.store.Dict().Name(graph.ID(id)); g != w {
			t.Fatalf("label %d is %q, want %q", id, g, w)
		}
	}
	if g, w := got.BranchDictStats(), want.BranchDictStats(); g != w {
		t.Fatalf("branch dictionary %+v, want %+v", g, w)
	}
	ge, we := got.store.Ordered(), want.store.Ordered()
	if len(ge) != len(we) {
		t.Fatalf("%d graphs stored, want %d", len(ge), len(we))
	}
	for i := range we {
		g, w := ge[i], we[i]
		switch {
		case g.ID != w.ID:
			t.Fatalf("entry %d: ID %d, want %d", i, g.ID, w.ID)
		case got.store.ShardIndex(g.ID) != want.store.ShardIndex(w.ID):
			t.Fatalf("entry %d: shard %d, want %d", i, got.store.ShardIndex(g.ID), want.store.ShardIndex(w.ID))
		case g.G.Name != w.G.Name || !bytes.Equal(g.G.Body(), w.G.Body()):
			t.Fatalf("entry %d: packed graph %q differs from %q", i, g.G.Name, w.G.Name)
		case !slices.Equal(g.Branches.AppendTo(nil), w.Branches.AppendTo(nil)):
			t.Fatalf("entry %d: branches %v, want %v", i, g.Branches.AppendTo(nil), w.Branches.AppendTo(nil))
		case g.Labels != w.Labels:
			t.Fatalf("entry %d: label span differs", i)
		}
	}
	var gt, wt bytes.Buffer
	if err := got.SaveText(&gt); err != nil {
		t.Fatal(err)
	}
	if err := want.SaveText(&wt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gt.Bytes(), wt.Bytes()) {
		t.Fatal("SaveText output differs from the serial load's")
	}
}

// TestLoadTextMatchesSerialLoad: the pipelined load numbers labels,
// branches and graphs exactly as one graph at a time does, at every
// worker count and shard layout, onto an empty database and onto one
// that already holds graphs.
func TestLoadTextMatchesSerialLoad(t *testing.T) {
	text := aasdText(t)
	// Enough seed graphs that every shard rebuilds its postings at once
	// rather than arming a quiet timer, which would keep the database
	// alive after the test.
	var seed strings.Builder
	for i := 0; i < 100; i++ {
		seed.WriteString(starText(fmt.Sprintf("seed%d", i), "C", "N", fmt.Sprintf("Z%d", i%7), "O"))
	}
	for _, procs := range []int{1, 2, 5} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("procs=%d/shards=%d", procs, shards), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				got, want := New(WithShards(shards)), New(WithShards(shards))
				for _, d := range []*Database{got, want} {
					if _, err := loadSerial(d, strings.NewReader(seed.String())); err != nil {
						t.Fatal(err)
					}
				}
				n, err := got.LoadText(bytes.NewReader(text))
				if err != nil {
					t.Fatal(err)
				}
				m, err := loadSerial(want, bytes.NewReader(text))
				if err != nil {
					t.Fatal(err)
				}
				if n != m {
					t.Fatalf("LoadText stored %d graphs, the serial load %d", n, m)
				}
				sameStore(t, got, want)
			})
		}
	}
}

// TestLoadTextCheckpointMatchesSerialLoad: a durable import through
// LoadText checkpoints to the segment bytes a serial load writes.
func TestLoadTextCheckpointMatchesSerialLoad(t *testing.T) {
	text := aasdText(t)
	segments := func(load func(*Database, io.Reader) (int, error)) map[string][]byte {
		dir := t.TempDir()
		d, err := Open(dir, WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := load(d, bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		names, err := filepath.Glob(filepath.Join(dir, "seg-*.bin"))
		if err != nil || len(names) == 0 {
			t.Fatalf("no segments in %s (%v)", dir, err)
		}
		out := map[string][]byte{}
		for _, name := range names {
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Base(name)] = b
		}
		return out
	}
	got, want := segments((*Database).LoadText), segments(loadSerial)
	if len(got) != len(want) {
		t.Fatalf("%d segments, want %d", len(got), len(want))
	}
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Fatalf("segment %s differs from the serial load's", name)
		}
	}
}

// errAfter is a reader that fails once its data is spent.
type errAfter struct {
	r   io.Reader
	err error
}

func (e *errAfter) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF {
		err = e.err
	}
	return n, err
}

// TestLoadTextFailureLeavesNoTrace: a load that fails — a bad stanza at
// graph k, an oversized graph at graph k, a reader that errors — returns
// the error, changes neither the store nor its dictionaries, and leaves
// no goroutine behind, wherever k falls in the pipeline's window. The
// loads use labels the database already knows: labels a failed parse met
// stay in the label dictionary, as they always have.
func TestLoadTextFailureLeavesNoTrace(t *testing.T) {
	lowerRecordLimit(t, 2000)
	const graphs = 4 * loadWindow
	stanzas := func(k int, bad string) string {
		var b strings.Builder
		for i := 0; i < graphs; i++ {
			if i == k {
				b.WriteString(bad)
				continue
			}
			b.WriteString(chainText(fmt.Sprintf("g%d", i), 3+i%7))
		}
		return b.String()
	}
	badStanza := "g broken 2\nv 0 L0\nv x L1\n"
	oversized := chainText("big", 400)
	readErr := errors.New("disk went away")
	for _, k := range []int{0, 1, loadWindow - 1, loadWindow + 3, graphs - 1} {
		for _, tc := range []struct {
			why  string
			r    io.Reader
			want error
		}{
			{"bad stanza", strings.NewReader(stanzas(k, badStanza)), nil},
			{"oversized graph", strings.NewReader(stanzas(k, oversized)), ErrGraphTooLarge},
			{"reader error", &errAfter{strings.NewReader(stanzas(-1, "")[:k*40]), readErr}, readErr},
		} {
			t.Run(fmt.Sprintf("%s/k=%d", tc.why, k), func(t *testing.T) {
				d := New(WithShards(2))
				if _, err := d.LoadText(strings.NewReader(chainText("known", 9))); err != nil {
					t.Fatal(err)
				}
				before, labels, procs := stateOf(d), d.store.Dict().Len(), runtime.NumGoroutine()
				_, err := d.LoadText(tc.r)
				if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
					t.Fatalf("LoadText: %v, want %v", err, tc.want)
				}
				if after := stateOf(d); after != before {
					t.Fatalf("store went from %+v to %+v", before, after)
				}
				if n := d.store.Dict().Len(); n != labels {
					t.Fatalf("label dictionary went from %d to %d labels", labels, n)
				}
				// The goroutines have returned; the runtime counts one
				// until it has finished exiting it.
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > procs; {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines before the load, %d after", procs, runtime.NumGoroutine())
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}

// TestLoadTextConcurrentLoads: loads, stores and searches running at once
// each keep their graphs whole.
func TestLoadTextConcurrentLoads(t *testing.T) {
	var text strings.Builder
	for i := 0; i < 3*loadWindow; i++ {
		text.WriteString(chainText(fmt.Sprintf("g%d", i), 3+i%11))
	}
	d := New(WithShards(3))
	q := chainBuilder(t, d, "q", 6).Query()
	const loaders = 3
	var wg sync.WaitGroup
	errs := make(chan error, 2*loaders)
	for i := 0; i < loaders; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if n, err := d.LoadText(strings.NewReader(text.String())); err != nil || n != 3*loadWindow {
				errs <- fmt.Errorf("LoadText: %d graphs, %v", n, err)
			}
		}()
		go func(i int) {
			defer wg.Done()
			b := d.NewGraph(fmt.Sprintf("s%d", i))
			b.AddVertex("L0")
			b.AddVertex("new" + fmt.Sprint(i))
			if err := b.AddEdge(0, 1, "e"); err != nil {
				errs <- err
				return
			}
			if _, err := b.Store(); err != nil {
				errs <- err
			}
			if _, err := d.Search(q, SearchOptions{Method: GreedySort, Tau: 2}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n, want := d.Len(), loaders*(3*loadWindow+1); n != want {
		t.Fatalf("%d graphs stored, want %d", n, want)
	}
	var out bytes.Buffer
	if err := d.SaveText(&out); err != nil {
		t.Fatal(err)
	}
	if back, err := graph.ReadAll(&out, graph.NewLabels()); err != nil || len(back) != d.Len() {
		t.Fatalf("SaveText reads back as %d graphs (%v), want %d", len(back), err, d.Len())
	}
}
