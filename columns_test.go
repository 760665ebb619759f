package gsim

// The scan decides most positions from the shard views' columns — ids,
// sizes, signatures — and counts what it prunes once per claimed range,
// attributing it to shards by view instead of by entry. These
// tests hold the columns to the entries they stand for and the three
// pruned counters (per shard, per database, per result) to each other
// and to a recount, for every way a scan can end.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"gsim/internal/db"
	"gsim/internal/index"
	"gsim/internal/method"
)

// checkProjectionColumns compares every view's columns of the current
// projection with its entries, slot for slot, and each span with its view.
func checkProjectionColumns(t *testing.T, d *Database) *projection {
	t.Helper()
	d.mu.RLock()
	p := d.projection()
	d.mu.RUnlock()
	for vi, v := range p.views {
		if len(v.IDs) != len(v.Entries) || len(v.Sizes) != len(v.Entries) || v.Pre.Len() != len(v.Entries) {
			t.Fatalf("view %d: %d ids, %d sizes, %d signatures for %d entries", vi, len(v.IDs), len(v.Sizes), v.Pre.Len(), len(v.Entries))
		}
		for slot, e := range v.Entries {
			if v.IDs[slot] != e.ID || int(v.Sizes[slot]) != e.Branches.Len() {
				t.Fatalf("view %d slot %d: columns say (id %d, size %d), entry is (id %d, size %d)",
					vi, slot, v.IDs[slot], v.Sizes[slot], e.ID, e.Branches.Len())
			}
		}
		if span := p.starts[vi+1] - p.starts[vi]; span != len(v.Entries) {
			t.Fatalf("span %d covers %d positions, its view holds %d entries", vi, span, len(v.Entries))
		}
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
	for _, v := range p.views {
		for slot, e := range v.Entries {
			if v.Pre.Prunable(&qp, qids, e, slot, tau) {
				byShard[d.store.ShardIndex(e.ID)]++
			}
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
	n := p.len()
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
// through rounds of stores, deletes and updates, and over a database
// built from a list of collection IDs.
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

		// The same graphs as a collection, of which every third is stored,
		// listed in descending ID order with the first five listed twice:
		// each is stored once.
		col := db.New("listed")
		col.Dict = d.store.Dict()
		for _, e := range d.store.Ordered() {
			col.Add(e.G.Unpack())
		}
		var ids []int
		for id := col.Len() - 1; id >= 0; id -= 3 {
			ids = append(ids, id)
		}
		distinct := len(ids)
		ids = append(ids, ids[:5]...)
		listed := FromCollectionShards(col, ids, shards)
		p := checkProjectionColumns(t, listed)
		if len(p.starts) != shards+1 || p.len() != distinct {
			t.Fatalf("%d listed IDs projected %d positions (spans %v)", distinct, p.len(), p.starts)
		}
		searchForms(t, fmt.Sprintf("%d shards, every third graph", shards), listed, rng)
		checkListedScan(t, listed, ids[:distinct], ids[0])
	}
}

// checkListedScan runs one complete scan of a database built from a list
// of collection IDs — the distinct IDs ids — for the stored graph dup,
// which the list names twice: every shard's scanned counter moves by the
// number of ids it holds, and dup is matched once, in ascending ID order
// with the rest.
func checkListedScan(t *testing.T, d *Database, ids []int, dup int) {
	t.Helper()
	share := make([]uint64, d.NumShards())
	for _, id := range ids {
		share[d.store.ShardIndex(uint64(id))]++
	}
	scanned := func() (out []uint64) {
		for i := range d.store.Telemetry().Shards {
			out = append(out, d.store.Telemetry().Shards[i].Scanned.Load())
		}
		return out
	}
	before := scanned()
	res, err := d.Search(d.Query(dup), SearchOptions{Method: GreedySort, Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	after := scanned()
	for i := range share {
		if delta := after[i] - before[i]; delta != share[i] {
			t.Fatalf("shard %d counted %d scanned, it holds %d of the listed IDs", i, delta, share[i])
		}
	}
	seen := 0
	for i, m := range res.Matches {
		if i > 0 && m.Index <= res.Matches[i-1].Index {
			t.Fatalf("matches out of ID order or repeated: %d after %d", m.Index, res.Matches[i-1].Index)
		}
		if m.Index == dup {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("graph %d, listed twice, matched itself %d times", dup, seen)
	}
}

// TestWriteThenReadCopiesNoColumn: one Store followed by one prefiltered
// Search allocates a bounded number of bytes, whatever the store's size.
// The search reads the shards' views in place; re-concatenating their
// columns after the write would cost 36 B per graph, ≈ 720 KB here. The
// cheapest of several rounds is taken, so a column's amortised append
// growth, which lands on one round in thousands, does not count.
func TestWriteThenReadCopiesNoColumn(t *testing.T) {
	const n, rounds, budget = 20000, 8, 64 << 10
	d := New(WithName("w2r"))
	rng := rand.New(rand.NewSource(67))
	for stored := 0; stored < n; stored += 1000 {
		batch := make([]*GraphBuilder, 1000)
		for i := range batch {
			batch[i] = buildRandomGraph(d, rng, fmt.Sprintf("g%d", stored+i))
		}
		if _, err := d.StoreAll(batch); err != nil {
			t.Fatal(err)
		}
	}
	q := buildRandomQuery(d, rng)
	opt := SearchOptions{Method: GreedySort, Tau: 1, Prefilter: true}
	if _, err := d.Search(q, opt); err != nil {
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for r := 0; r < rounds; r++ {
		b := buildRandomGraph(d, rng, fmt.Sprintf("w%d", r))
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := b.Store(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Search(q, opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	if least > budget {
		t.Fatalf("a store and a prefiltered search over %d graphs allocated %d B, budget %d B", n, least, budget)
	}
	t.Logf("a store and a prefiltered search over %d graphs: %d B", n, least)
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
