package gsim

// The columnar prefilter must be invisible: for any interleaving of
// stores, deletes and updates, the prune decision at every scan position
// must be bit-identical to the legacy Summary path (index.PairPrunable as
// oracle) — not merely produce the same final matches. These tests drive
// the real Database mutation API and compare every view of the projection
// against freshly computed legacy summaries; the concurrent variant runs
// the same check under live mutation and is raced in CI.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gsim/internal/index"
)

// buildRandomGraph assembles a storable graph over a small shared label
// pool (duplicate-heavy, like real corpora).
func buildRandomGraph(d *Database, rng *rand.Rand, name string) *GraphBuilder {
	b := d.NewGraph(name)
	n := 3 + rng.Intn(8)
	for i := 0; i < n; i++ {
		b.AddVertex(fmt.Sprintf("L%d", rng.Intn(4)))
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v, fmt.Sprintf("e%d", rng.Intn(3))) // dup edges error; ignored
		}
	}
	return b
}

// buildRandomQuery mixes known and unknown (ephemeral) labels.
func buildRandomQuery(d *Database, rng *rand.Rand) *Query {
	b := d.NewQuery("q")
	n := 2 + rng.Intn(10)
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			b.AddVertex(fmt.Sprintf("unknown%d", rng.Intn(3)))
		} else {
			b.AddVertex(fmt.Sprintf("L%d", rng.Intn(4)))
		}
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v, fmt.Sprintf("e%d", rng.Intn(4)))
		}
	}
	return b.Query()
}

// checkPruneSet compares every (query, entry, tau) prune decision of the
// current projection against the legacy oracle.
func checkPruneSet(t *testing.T, d *Database, rng *rand.Rand, round int) {
	t.Helper()
	d.mu.RLock()
	p := d.projection()
	d.mu.RUnlock()
	for qi := 0; qi < 4; qi++ {
		q := buildRandomQuery(d, rng)
		qs := index.Summarize(q.g)
		qp := index.PrepareQuery(q.g)
		qids := d.store.BranchDict().ResolveMultiset(q.branches)
		for tau := 0; tau <= 5; tau++ {
			for vi, v := range p.views {
				for slot, e := range v.Entries {
					want := index.PairPrunable(qs, qids, index.Summarize(e.G), e, tau)
					got := v.Pre.Prunable(&qp, qids, e, slot, tau)
					if got != want {
						t.Fatalf("round %d query %d tau %d shard %d slot %d (graph %s): columnar %v, legacy %v",
							round, qi, tau, vi, slot, e.G.Name, got, want)
					}
				}
			}
		}
	}
}

// TestPrefilterPruneSetMatchesLegacy: rounds of mixed mutations, each
// followed by a full prune-set comparison and a real prefiltered search
// (GreedySort — no priors needed) to exercise the public path.
func TestPrefilterPruneSetMatchesLegacy(t *testing.T) {
	d := New(WithName("peq"), WithShards(5))
	rng := rand.New(rand.NewSource(31))
	var live []int
	for round := 0; round < 6; round++ {
		for i := 0; i < 25; i++ {
			id, err := buildRandomGraph(d, rng, fmt.Sprintf("g%d_%d", round, i)).Store()
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
		for i := 0; i < 6 && len(live) > 1; i++ {
			k := rng.Intn(len(live))
			if err := d.Delete(live[k]); err != nil {
				t.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for i := 0; i < 4 && len(live) > 0; i++ {
			id := live[rng.Intn(len(live))]
			if err := buildRandomGraph(d, rng, fmt.Sprintf("u%d_%d", round, i)).Update(id); err != nil {
				t.Fatal(err)
			}
		}
		checkPruneSet(t, d, rng, round)
		q := buildRandomQuery(d, rng)
		if _, err := d.Search(q, SearchOptions{Method: GreedySort, Tau: 3, Prefilter: true}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPrefilterUnderConcurrentMutation: prefiltered searches race against
// stores, deletes and updates (the -race CI job runs this with the
// detector on); afterwards the settled prune set must still match the
// oracle.
func TestPrefilterUnderConcurrentMutation(t *testing.T) {
	d := New(WithName("peqc"), WithShards(4))
	seedRng := rand.New(rand.NewSource(37))
	var mu sync.Mutex
	var live []int
	for i := 0; i < 40; i++ {
		id, err := buildRandomGraph(d, seedRng, fmt.Sprintf("seed%d", i)).Store()
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}

	put := func(id int) {
		mu.Lock()
		live = append(live, id)
		mu.Unlock()
	}
	// take checks a random ID out of live when more than keep are in it.
	// Until it is put back no other mutator can pick it, so a Delete or
	// Update of a taken ID must succeed.
	take := func(rng *rand.Rand, keep int) (id int, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(live) <= keep {
			return 0, false
		}
		k := rng.Intn(len(live))
		id = live[k]
		live[k] = live[len(live)-1]
		live = live[:len(live)-1]
		return id, true
	}

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				switch rng.Intn(3) {
				case 0:
					id, err := buildRandomGraph(d, rng, fmt.Sprintf("m%d_%d", seed, i)).Store()
					if err != nil {
						t.Error(err)
						return
					}
					put(id)
				case 1:
					if id, ok := take(rng, 10); ok {
						if err := d.Delete(id); err != nil {
							t.Error(err)
							return
						}
					}
				default:
					if id, ok := take(rng, 0); ok {
						err := buildRandomGraph(d, rng, fmt.Sprintf("mu%d_%d", seed, i)).Update(id)
						put(id)
						if err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}(int64(41 + w))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				q := buildRandomQuery(d, rng)
				if _, err := d.Search(q, SearchOptions{Method: GreedySort, Tau: 2 + rng.Intn(3), Prefilter: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(53 + w))
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	checkPruneSet(t, d, rand.New(rand.NewSource(59)), -1)
}

// TestPrefilterSearchEquivalence: with and without the prefilter, a
// search returns identical results — the prefilter only removes pairs the
// admissible bounds prove cannot match.
func TestPrefilterSearchEquivalence(t *testing.T) {
	d := New(WithName("peqs"), WithShards(3))
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 80; i++ {
		if _, err := buildRandomGraph(d, rng, fmt.Sprintf("g%d", i)).Store(); err != nil {
			t.Fatal(err)
		}
	}
	for qi := 0; qi < 10; qi++ {
		q := buildRandomQuery(d, rng)
		for tau := 1; tau <= 4; tau++ {
			opt := SearchOptions{Method: GreedySort, Tau: tau}
			plain, err := d.Search(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Prefilter = true
			filtered, err := d.Search(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(plain.Matches) != len(filtered.Matches) {
				t.Fatalf("query %d tau %d: %d matches plain, %d with prefilter",
					qi, tau, len(plain.Matches), len(filtered.Matches))
			}
			for i := range plain.Matches {
				if plain.Matches[i] != filtered.Matches[i] {
					t.Fatalf("query %d tau %d match %d: %+v vs %+v",
						qi, tau, i, plain.Matches[i], filtered.Matches[i])
				}
			}
		}
	}
}
