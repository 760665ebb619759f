package gsim

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestStatsAreAFunctionOfTheStoredSet: one graph set stored in 1, 3 and 7
// shards reports the same Stats, to the last bit of the average degree,
// and the same distinct sizes — right after the stores, after deleting
// every third graph, and after a durable Close and an Open that changes
// every store's shard count. A reader calls Stats and DistinctSizes while
// the stores run.
func TestStatsAreAFunctionOfTheStoredSet(t *testing.T) {
	const graphs, batch = 3000, 100
	shards := []int{1, 3, 7}
	dirs := make([]string, len(shards))
	dbs := make([]*Database, len(shards))
	for i, n := range shards {
		dirs[i] = t.TempDir()
		d, err := Open(dirs[i], WithShards(n), WithFsyncPolicy(FsyncNever))
		if err != nil {
			t.Fatal(err)
		}
		dbs[i] = d
	}
	defer func() {
		for _, d := range dbs {
			d.Close()
		}
	}()

	check := func(when string) {
		t.Helper()
		want, wantSizes := dbs[0].Stats(), dbs[0].store.DistinctSizes()
		if want.Graphs == 0 || len(wantSizes) == 0 {
			t.Fatalf("%s: %+v, sizes %v: nothing stored", when, want, wantSizes)
		}
		for _, d := range dbs[1:] {
			if got := d.Stats(); got != want {
				t.Fatalf("%s: %d shards report %#v, %d shards %#v", when, d.NumShards(), got, dbs[0].NumShards(), want)
			}
			if got := d.store.DistinctSizes(); !slices.Equal(got, wantSizes) {
				t.Fatalf("%s: %d shards report sizes %v, %d shards %v", when, d.NumShards(), got, dbs[0].NumShards(), wantSizes)
			}
		}
	}

	read := dbs[len(dbs)-1]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st, sizes := read.Stats(), read.store.DistinctSizes()
			if st.Graphs > graphs || (st.Graphs > 0) != (st.MaxV > 0) {
				t.Errorf("concurrent Stats %+v", st)
				return
			}
			for i := 1; i < len(sizes); i++ {
				if sizes[i-1] >= sizes[i] {
					t.Errorf("concurrent DistinctSizes %v: not strictly ascending", sizes)
					return
				}
			}
		}
	}()
	for i, d := range dbs {
		rng := rand.New(rand.NewSource(47))
		for lo := 0; lo < graphs; lo += batch {
			bs := make([]*GraphBuilder, batch)
			for j := range bs {
				bs[j] = buildRandomGraph(d, rng, fmt.Sprintf("g%d", lo+j))
			}
			if first, err := d.StoreAll(bs); err != nil || first != lo {
				t.Fatalf("%d shards: StoreAll at %d = %d, %v", shards[i], lo, first, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	check("after the stores")

	for _, d := range dbs {
		for id := 0; id < graphs; id += 3 {
			if err := d.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("after deleting every third graph")
	want := dbs[0].Stats()

	for i, d := range dbs {
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		n := shards[(i+1)%len(shards)]
		r, err := Open(dirs[i], WithShards(n), WithFsyncPolicy(FsyncNever))
		if err != nil {
			t.Fatal(err)
		}
		if r.NumShards() != n {
			t.Fatalf("reopened with %d shards, want %d", r.NumShards(), n)
		}
		dbs[i] = r
	}
	check("after reopening with other shard counts")
	if got := dbs[0].Stats(); got != want {
		t.Fatalf("reopened store reports %#v, before the reopen %#v", got, want)
	}
}
