package gsim

// The scan decides most positions from the projection's columns — ids,
// sizes, signatures — and counts what it prunes once per claimed range,
// attributing it to shards from positions instead of entries. These
// tests hold the columns to the entries they stand for and the three
// pruned counters (per shard, per database, per result) to each other
// and to a recount, for every way a scan can end.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"gsim/internal/db"
	"gsim/internal/index"
	"gsim/internal/method"
)

// checkProjectionColumns compares both column sets of the current
// projection with its entries, position for position.
func checkProjectionColumns(t *testing.T, d *Database) *projection {
	t.Helper()
	d.mu.RLock()
	p := d.projection(true)
	d.mu.RUnlock()
	if len(p.ids) != len(p.entries) || len(p.sizes) != len(p.entries) || p.pre.Len() != len(p.entries) {
		t.Fatalf("%d ids, %d sizes, %d signatures for %d entries", len(p.ids), len(p.sizes), p.pre.Len(), len(p.entries))
	}
	for pos, e := range p.entries {
		if p.ids[pos] != e.ID || int(p.sizes[pos]) != len(e.Branches) {
			t.Fatalf("position %d: columns say (id %d, size %d), entry is (id %d, size %d)",
				pos, p.ids[pos], p.sizes[pos], e.ID, len(e.Branches))
		}
	}
	if p.starts != nil && p.starts[len(p.starts)-1] != len(p.entries) {
		t.Fatalf("spans end at %d, scan set has %d entries", p.starts[len(p.starts)-1], len(p.entries))
	}
	return p
}

// prunedCounters reads the database-wide and the per-shard pruned and
// scanned counters.
func prunedCounters(d *Database) (pruned, scanned uint64, byShard []uint64) {
	for i := range d.store.Telemetry().Shards {
		byShard = append(byShard, d.store.Telemetry().Shards[i].Pruned.Load())
	}
	return d.tele.Pruned.Load(), d.tele.Scanned.Load(), byShard
}

// recount is the oracle: how many of the projection's entries the
// prefilter prunes for q, by owning shard.
func recount(d *Database, p *projection, q *Query, tau int) []uint64 {
	byShard := make([]uint64, d.NumShards())
	qp := index.PrepareQuery(q.g)
	qids := d.store.BranchDict().ResolveMultiset(q.branches)
	for pos, e := range p.entries {
		if p.pre.Prunable(&qp, qids, e, pos, tau) {
			byShard[d.store.ShardIndex(e.ID)]++
		}
	}
	return byShard
}

// expectPruned runs one search and checks the counters it moved: the
// per-shard deltas sum to the database's delta, which equals what the
// search reported in its stages; the scanned delta is what it reported
// too. For a complete scan each shard's delta must equal the recount,
// for a stopped one it may not exceed it.
func expectPruned(t *testing.T, label string, d *Database, want []uint64, complete bool, run func() (pruned, scanned int)) {
	t.Helper()
	p0, s0, sh0 := prunedCounters(d)
	pruned, scanned := run()
	p1, s1, sh1 := prunedCounters(d)
	var sum uint64
	for i := range sh1 {
		delta := sh1[i] - sh0[i]
		sum += delta
		if delta > want[i] || (complete && delta != want[i]) {
			t.Fatalf("%s: shard %d counted %d pruned, recount says %d (complete scan: %v)", label, i, delta, want[i], complete)
		}
	}
	if sum != p1-p0 || p1-p0 != uint64(pruned) {
		t.Fatalf("%s: shards counted %d pruned, the database %d, the result %d", label, sum, p1-p0, pruned)
	}
	if s1-s0 != uint64(scanned) {
		t.Fatalf("%s: database counted %d scanned, the result %d", label, s1-s0, scanned)
	}
}

// searchForms drives every consumer of the scan over d and checks the
// counters after each. GreedySort needs no priors, and what the prefilter
// prunes does not depend on the method behind it.
func searchForms(t *testing.T, label string, d *Database, rng *rand.Rand) {
	t.Helper()
	const tau = 2
	p := checkProjectionColumns(t, d)
	n := len(p.entries)
	ctx := context.Background()
	opt := SearchOptions{Method: GreedySort, Tau: tau, Prefilter: true, Workers: 1 + rng.Intn(4)}
	q := buildRandomQuery(d, rng)
	want := recount(d, p, q, tau)

	expectPruned(t, label+"/full", d, want, true, func() (int, int) {
		res, err := d.Search(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scanned != n {
			t.Fatalf("%s: full scan examined %d of %d", label, res.Scanned, n)
		}
		for _, m := range res.Matches { // Index comes from the ids column, Name from the entry
			if e, ok := d.store.Get(uint64(m.Index)); !ok || e.G.Name != m.Name {
				t.Fatalf("%s: match %d is named %q, the stored graph is not", label, m.Index, m.Name)
			}
		}
		return res.Stages.Pruned, res.Scanned
	})
	expectPruned(t, label+"/traced", d, want, true, func() (int, int) {
		traced := opt
		traced.Trace = true
		res, err := d.Search(q, traced)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stages.Pruned, res.Scanned
	})
	expectPruned(t, label+"/early-stop", d, want, false, func() (int, int) {
		st, err := d.SearchStreamStats(ctx, q, opt, func(Match) bool { return false })
		if err != nil {
			t.Fatal(err)
		}
		if st.Scanned > n {
			t.Fatalf("%s: stopped scan examined %d of %d", label, st.Scanned, n)
		}
		return st.Stages.Pruned, st.Scanned
	})
	expectPruned(t, label+"/top-k", d, make([]uint64, d.NumShards()), true, func() (int, int) {
		res, err := d.SearchTopK(q, TopKOptions{Method: GreedySort, K: 5, Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stages.Pruned, res.Scanned
	})
}

// TestColumnsAndPrunedCountersAgree: over one and over four shards,
// through rounds of stores, deletes and updates, and over an active
// subset.
func TestColumnsAndPrunedCountersAgree(t *testing.T) {
	for _, shards := range []int{1, 4} {
		d := New(WithName("cols"), WithShards(shards))
		rng := rand.New(rand.NewSource(int64(53 + shards)))
		var live []int
		for round := 0; round < 5; round++ {
			for i := 0; i < 40; i++ {
				id, err := buildRandomGraph(d, rng, fmt.Sprintf("g%d_%d", round, i)).Store()
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			}
			for i := 0; i < 9; i++ {
				k := rng.Intn(len(live))
				if err := d.Delete(live[k]); err != nil {
					t.Fatal(err)
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			for i := 0; i < 6; i++ {
				if err := buildRandomGraph(d, rng, fmt.Sprintf("u%d_%d", round, i)).Update(live[rng.Intn(len(live))]); err != nil {
					t.Fatal(err)
				}
			}
			searchForms(t, fmt.Sprintf("%d shards, round %d", shards, round), d, rng)
		}

		// The same store behind an active subset: every third graph, in
		// descending ID order, so flat position and shard span part ways.
		col := db.New("subset")
		col.Dict = d.store.Dict()
		for _, e := range d.store.Ordered() {
			col.Add(e.G)
		}
		var active []int
		for id := col.Len() - 1; id >= 0; id -= 3 {
			active = append(active, id)
		}
		sub := FromCollectionShards(col, active, shards)
		if p := checkProjectionColumns(t, sub); p.starts != nil || len(p.entries) != len(active) {
			t.Fatalf("active subset of %d projected %d entries (spans %v)", len(active), len(p.entries), p.starts)
		}
		searchForms(t, fmt.Sprintf("%d shards, active subset", shards), sub, rng)
	}
}

// TestCancelledScanStopsWithinOnePairPerWorker: a scan claims ranges of
// positions, but cancellation must not wait for a claim's worth of O(n³)
// LSAP pairs — every worker polls before each pair, so once cancel has
// returned each can start at most the one pair it had already polled for.
func TestCancelledScanStopsWithinOnePairPerWorker(t *testing.T) {
	const workers = 4
	d := New(WithName("cancel"))
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 1500; i++ {
		b := d.NewGraph(fmt.Sprintf("g%d", i))
		for v := 0; v < 24; v++ {
			b.AddVertex(fmt.Sprintf("L%d", rng.Intn(6)))
		}
		for v := 1; v < 24; v++ {
			b.AddEdge(rng.Intn(v), v, "e")
		}
		if _, err := b.Store(); err != nil {
			t.Fatal(err)
		}
	}
	q := d.Query(0)

	var pairs atomic.Int64 // every Score call counts one, as it starts
	method.SetDecompCounter(&pairs)
	defer method.SetDecompCounter(nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := d.SearchContext(ctx, q, SearchOptions{Method: LSAP, Tau: 3, Workers: workers})
		done <- err
	}()
	for pairs.Load() < 2*workers { // the scan is under way on every worker's first claim
		runtime.Gosched()
	}
	cancel()
	atCancel := pairs.Load()
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (%d of %d pairs scored: the fixture is too small to cancel)", err, pairs.Load(), d.Len())
	}
	if late := pairs.Load() - atCancel; late > workers {
		t.Fatalf("%d pairs started after cancel returned, want at most one per worker (%d)", late, workers)
	}
}
