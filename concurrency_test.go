package gsim_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"gsim"
)

// chainText renders n small .gsim chain graphs for bulk-load tests.
func chainText(prefix string, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		v := 3 + i%3
		fmt.Fprintf(&b, "g %s%d %d\n", prefix, i, v)
		for j := 0; j < v; j++ {
			fmt.Fprintf(&b, "v %d L%d\n", j, (i+j)%4)
		}
		for j := 0; j+1 < v; j++ {
			fmt.Fprintf(&b, "e %d %d x\n", j, j+1)
		}
	}
	return b.String()
}

// TestConcurrentStoreDuringStream is the -race regression for the
// unsynchronized collection swap/append: graphs are stored (builder path
// and LoadText path) while SearchStream scans run concurrently. Under the
// epoch/RWMutex layer each scan runs against its prepare-time snapshot,
// so this must be free of data races AND each scan must see a consistent
// collection (Scanned equal to the snapshot's size, matches only
// from graphs that existed at prepare time).
func TestConcurrentStoreDuringStream(t *testing.T) {
	d := gsim.New(gsim.WithName("race"))
	if _, err := d.LoadText(strings.NewReader(chainText("seed", 20))); err != nil {
		t.Fatal(err)
	}
	q := d.NewGraph("q")
	q.AddVertex("L0")
	q.AddVertex("L1")
	q.AddVertex("L2")
	if err := q.AddEdge(0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := q.AddEdge(1, 2, "x"); err != nil {
		t.Fatal(err)
	}
	query := q.Query()

	const (
		writers    = 4
		perWriter  = 25
		searchers  = 4
		perScanner = 20
	)
	start := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, writers+searchers+1)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				b := d.NewGraph(fmt.Sprintf("w%d_%d", w, i))
				b.AddVertex("L0")
				b.AddVertex("L1")
				if err := b.AddEdge(0, 1, "x"); err != nil {
					errc <- err
					return
				}
				if _, err := b.Store(); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	// One bulk loader exercises the LoadText append path concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 10; i++ {
			if _, err := d.LoadText(strings.NewReader(chainText(fmt.Sprintf("bulk%d_", i), 5))); err != nil {
				errc <- err
				return
			}
		}
	}()
	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perScanner; i++ {
				before := d.Len()
				scanned, err := d.SearchStream(context.Background(), query,
					gsim.SearchOptions{Method: gsim.LSAP, Tau: 2}, func(gsim.Match) bool { return true })
				if err != nil {
					errc <- err
					return
				}
				after := d.Len()
				// The scan saw one consistent snapshot: at least the
				// graphs present before prepare, at most those present
				// when it finished.
				if scanned < before || scanned > after {
					errc <- fmt.Errorf("scanned %d outside snapshot bounds [%d,%d]", scanned, before, after)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	want := 20 + writers*perWriter + 10*5
	if d.Len() != want {
		t.Fatalf("final length %d, want %d", d.Len(), want)
	}
}

// TestEpochAdvancesOnMutations: every mutation class bumps Epoch, reads
// do not.
func TestEpochAdvancesOnMutations(t *testing.T) {
	d := gsim.New(gsim.WithName("epoch"))
	e0 := d.Epoch()
	if _, err := d.LoadText(strings.NewReader(chainText("a", 8))); err != nil {
		t.Fatal(err)
	}
	e1 := d.Epoch()
	if e1 != e0+1 {
		t.Fatalf("LoadText epoch %d, want %d", e1, e0+1)
	}
	b := d.NewGraph("one")
	b.AddVertex("L0")
	if _, err := b.Store(); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != e1+1 {
		t.Fatalf("Store epoch %d, want %d", d.Epoch(), e1+1)
	}
	if err := d.BuildPriors(gsim.OfflineConfig{TauMax: 3, SamplePairs: 500}); err != nil {
		t.Fatal(err)
	}
	e2 := d.Epoch()
	if e2 != e1+2 {
		t.Fatalf("BuildPriors epoch %d, want %d", e2, e1+2)
	}
	// Reads leave the epoch alone.
	d.Stats()
	d.Len()
	if _, err := d.Search(d.Query(0), gsim.SearchOptions{Tau: 2, Gamma: 0.5}); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != e2 {
		t.Fatalf("reads moved the epoch: %d != %d", d.Epoch(), e2)
	}
}
