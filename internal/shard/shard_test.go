package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gsim/internal/branch"
	"gsim/internal/db"
	"gsim/internal/graph"
	"gsim/internal/telemetry"
	"gsim/internal/wal"
)

// chain builds a small labeled path graph against dict.
func chain(dict *graph.Labels, name string, n int, label string) *graph.Graph {
	g := graph.New(n)
	g.Name = name
	for i := 0; i < n; i++ {
		g.AddVertex(dict.Intern(fmt.Sprintf("%s%d", label, i%3)))
	}
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1, dict.Intern("e"))
	}
	return g
}

// update is a one-update Commit: it replaces the graph under id with g
// and reports whether id was stored.
func update(m *Map, id uint64, g *graph.Graph) (bool, error) {
	_, _, ok, err := m.Commit(telemetry.OpUpdate, []Mutation{{Op: wal.OpUpdate, ID: id, P: m.Prepare(g)}})
	return ok, err
}

func fill(m *Map, n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i], _ = m.Add(chain(m.Dict(), fmt.Sprintf("g%d", i), 3+i%5, "L"))
	}
	return ids
}

// TestAddAssignsSequentialIDs: IDs are dense and insertion-ordered, the
// ordered view recovers insertion order, and every entry is reachable by
// Get from whatever shard it hashed to.
func TestAddAssignsSequentialIDs(t *testing.T) {
	m := New("t", 4)
	ids := fill(m, 50)
	for i, id := range ids {
		if id != uint64(i) {
			t.Fatalf("ID %d assigned for insert %d", id, i)
		}
		e, ok := m.Get(id)
		if !ok || e.ID != id || e.G.Name != fmt.Sprintf("g%d", i) {
			t.Fatalf("Get(%d) = %+v, %v", id, e, ok)
		}
	}
	ord := m.Ordered()
	if len(ord) != 50 {
		t.Fatalf("Ordered holds %d entries", len(ord))
	}
	for i, e := range ord {
		if e.ID != uint64(i) {
			t.Fatalf("Ordered[%d].ID = %d", i, e.ID)
		}
	}
	if m.Len() != 50 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// TestShardingDistributes: with enough entries every shard of a small map
// holds some, and sizes sum to the total.
func TestShardingDistributes(t *testing.T) {
	m := New("t", 4)
	fill(m, 400)
	total := 0
	for s, n := range m.ShardSizes() {
		if n == 0 {
			t.Fatalf("shard %d empty after 400 inserts", s)
		}
		total += n
	}
	if total != 400 {
		t.Fatalf("shard sizes sum to %d", total)
	}
}

// TestDeleteSwapRemove: deletion removes exactly the victim, keeps every
// other ID resolvable, bumps the epoch, and releases branch refcounts.
func TestDeleteSwapRemove(t *testing.T) {
	m := New("t", 3)
	ids := fill(m, 30)
	e0 := m.Epoch()
	if e0 != 30 {
		t.Fatalf("epoch after 30 adds = %d", e0)
	}
	if ok, _ := m.Delete(999); ok {
		t.Fatal("deleted a nonexistent ID")
	}
	if m.Epoch() != e0 {
		t.Fatal("failed delete moved the epoch")
	}
	victim := ids[7]
	if ok, _ := m.Delete(victim); !ok {
		t.Fatal("delete failed")
	}
	if m.Epoch() != e0+1 {
		t.Fatalf("epoch after delete = %d, want %d", m.Epoch(), e0+1)
	}
	if _, ok := m.Get(victim); ok {
		t.Fatal("deleted ID still resolvable")
	}
	if ok, _ := m.Delete(victim); ok {
		t.Fatal("double delete succeeded")
	}
	if m.Len() != 29 {
		t.Fatalf("Len = %d after delete", m.Len())
	}
	for _, id := range ids {
		if id == victim {
			continue
		}
		if e, ok := m.Get(id); !ok || e.ID != id {
			t.Fatalf("ID %d lost after deleting %d", id, victim)
		}
	}
	ord := m.Ordered()
	for i := 1; i < len(ord); i++ {
		if ord[i-1].ID >= ord[i].ID {
			t.Fatal("Ordered not strictly ascending after delete")
		}
	}
}

// TestUpdateReplacesInPlace: update keeps the ID and shard, swaps the
// graph, resyncs stats, and bumps the epoch once.
func TestUpdateReplacesInPlace(t *testing.T) {
	m := New("t", 2)
	ids := fill(m, 10)
	before := m.Epoch()
	g := chain(m.Dict(), "updated", 9, "Z")
	if ok, _ := update(m, 12345, g); ok {
		t.Fatal("updated a nonexistent ID")
	}
	if ok, _ := update(m, ids[3], g); !ok {
		t.Fatal("update failed")
	}
	if m.Epoch() != before+1 {
		t.Fatalf("epoch after update = %d, want %d", m.Epoch(), before+1)
	}
	e, ok := m.Get(ids[3])
	if !ok || e.G.Name != "updated" || e.ID != ids[3] {
		t.Fatalf("Get after update = %+v, %v", e, ok)
	}
	if m.Len() != 10 {
		t.Fatalf("Len changed by update: %d", m.Len())
	}
	if st := m.Stats(); st.MaxV != 9 {
		t.Fatalf("MaxV after update = %d, want 9", st.MaxV)
	}
}

// TestStatsTrackMutations: the merged statistics follow adds, deletes and
// updates exactly — including high-water marks shrinking when the largest
// graph goes away.
func TestStatsTrackMutations(t *testing.T) {
	m := New("t", 4)
	small := chain(m.Dict(), "s", 3, "A")
	big := chain(m.Dict(), "b", 12, "B")
	idSmall, _ := m.Add(small)
	idBig, _ := m.Add(big)
	if st := m.Stats(); st.Graphs != 2 || st.MaxV != 12 {
		t.Fatalf("stats %+v", st)
	}
	if ok, _ := m.Delete(idBig); !ok {
		t.Fatal("delete big failed")
	}
	st := m.Stats()
	if st.Graphs != 1 || st.MaxV != 3 {
		t.Fatalf("after deleting the max: %+v", st)
	}
	// Label counts: only the small graph's labels remain distinct.
	if st.LV == 0 || st.LE != 1 {
		t.Fatalf("label stats %+v", st)
	}
	sizes := m.DistinctSizes()
	if len(sizes) != 1 || sizes[0] != 3 {
		t.Fatalf("DistinctSizes = %v", sizes)
	}
	m.Delete(idSmall)
	if st := m.Stats(); st.Graphs != 0 || st.MaxV != 0 || st.LV != 0 {
		t.Fatalf("empty stats %+v", st)
	}
}

// TestViewsConsistentCut: a cut's entries and epoch agree, snapshots are
// immune to later mutations, and the cut's columns — the prefilter's
// signatures included — are aligned slot for slot.
func TestViewsConsistentCut(t *testing.T) {
	m := New("t", 3)
	ids := fill(m, 40)
	views, epoch := m.Views(true)
	if epoch != m.Epoch() {
		t.Fatalf("cut epoch %d, live %d", epoch, m.Epoch())
	}
	checkColumns(t, views)
	n := 0
	for _, v := range views {
		n += len(v.Entries)
	}
	if n != 40 {
		t.Fatalf("cut covers %d entries", n)
	}
	// Mutate heavily; the old cut must not change.
	for _, id := range ids[:20] {
		m.Delete(id)
	}
	fill(m, 10)
	n2 := 0
	for _, v := range views {
		n2 += len(v.Entries)
	}
	if n2 != 40 {
		t.Fatalf("old cut shrank to %d entries", n2)
	}
	// A new cut reflects the mutations and a larger epoch.
	_, epoch2 := m.Views(true)
	if epoch2 <= epoch {
		t.Fatalf("epoch did not advance: %d → %d", epoch, epoch2)
	}
	if m.Len() != 30 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// TestIncrementalSums: inserts, deletes and updates keep every shard's
// prefilter columns aligned with its entries, slot for slot, and
// PrefilterMem covers every stored graph.
func TestIncrementalSums(t *testing.T) {
	m := New("t", 2)
	ids := fill(m, 20)
	m.Delete(ids[4])
	update(m, ids[5], chain(m.Dict(), "upd", 11, "Q"))
	fill(m, 5)
	views, _ := m.Views(true)
	checkColumns(t, views)
	if mem := m.PrefilterMem(); mem.Entries != m.Len() {
		t.Fatalf("PrefilterMem entries %d, store %d", mem.Entries, m.Len())
	}
}

// TestAddAllocatesNoMoreAfterAPrefilteredCut: an Add into a store that
// has served a prefiltered cut allocates no more than one into a store
// that never has — no search leaves the write path a store to keep.
func TestAddAllocatesNoMoreAfterAPrefilteredCut(t *testing.T) {
	adds := func(cut bool) float64 {
		col := db.New("t")
		for i := 0; i < 1000; i++ {
			col.Add(chain(col.Dict, fmt.Sprintf("g%d", i), 3+i%5, "L"))
		}
		// 1000 entries keep the 101 Adds below the postings rebuild
		// threshold, so no rebuild allocates during the measurement.
		m := FromCollection(col, nil, 1)
		if cut {
			m.Views(true)
		}
		g := chain(m.Dict(), "new", 12, "L")
		return testing.AllocsPerRun(100, func() { m.Add(g) })
	}
	fresh, served := adds(false), adds(true)
	if served > fresh {
		t.Fatalf("Add allocates %v times after a prefiltered cut, %v times before any", served, fresh)
	}
	t.Logf("%v allocations per Add either way", fresh)
}

// TestCommitAtomicAndValidated: a batch with an unknown update ID changes
// nothing; a valid batch lands whole, with inserts contiguous from the
// returned first ID.
func TestCommitAtomicAndValidated(t *testing.T) {
	m := New("t", 3)
	ids := fill(m, 6)
	epoch := m.Epoch()
	bogus := uint64(777)
	_, missing, ok, _ := m.Commit(telemetry.OpCommit, []Mutation{
		{Op: wal.OpStore, P: m.Prepare(chain(m.Dict(), "new0", 4, "N"))},
		{Op: wal.OpUpdate, ID: bogus, P: m.Prepare(chain(m.Dict(), "nope", 4, "N"))},
	})
	if ok || missing != bogus {
		t.Fatalf("invalid commit: ok=%v missing=%d", ok, missing)
	}
	if m.Len() != 6 || m.Epoch() != epoch {
		t.Fatal("failed commit left changes behind")
	}
	first, _, ok, _ := m.Commit(telemetry.OpCommit, []Mutation{
		{Op: wal.OpStore, P: m.Prepare(chain(m.Dict(), "new0", 4, "N"))},
		{Op: wal.OpUpdate, ID: ids[1], P: m.Prepare(chain(m.Dict(), "upd1", 5, "U"))},
		{Op: wal.OpStore, P: m.Prepare(chain(m.Dict(), "new1", 4, "N"))},
	})
	if !ok || first != 6 {
		t.Fatalf("commit: ok=%v first=%d", ok, first)
	}
	if m.Len() != 8 {
		t.Fatalf("Len = %d after commit", m.Len())
	}
	if e, _ := m.Get(ids[1]); e.G.Name != "upd1" {
		t.Fatalf("update in batch not applied: %s", e.G.Name)
	}
	if e, ok := m.Get(7); !ok || e.G.Name != "new1" {
		t.Fatal("second insert not at first+1")
	}
	if m.Epoch() <= epoch {
		t.Fatal("commit did not advance the epoch")
	}
}

// TestFromCollectionPreservesIdentity: a store built from a flat
// collection numbers entries like the collection, shares its
// dictionaries, and answers Get for every original index; one built from
// a list holds each listed index once and nothing else.
func TestFromCollectionPreservesIdentity(t *testing.T) {
	col := db.New("seed")
	for i := 0; i < 25; i++ {
		col.Add(chain(col.Dict, fmt.Sprintf("c%d", i), 3+i%4, "L"))
	}
	listed := FromCollection(col, []int{7, 3, 7, -1, 25}, 2)
	if listed.Len() != 2 || listed.NextID() != 25 {
		t.Fatalf("listed store: Len=%d NextID=%d, want 2 and 25", listed.Len(), listed.NextID())
	}
	for i := 0; i < 25; i++ {
		e, ok := listed.Get(uint64(i))
		if want := i == 3 || i == 7; ok != want || (ok && e != col.Entry(i)) {
			t.Fatalf("listed store: Get(%d) = %v, %v", i, e, ok)
		}
	}

	m := FromCollection(col, nil, 4)
	if m.Len() != 25 || m.NextID() != 25 {
		t.Fatalf("Len=%d NextID=%d", m.Len(), m.NextID())
	}
	if m.Dict() != col.Dict || m.BranchDict() != col.BranchDict() {
		t.Fatal("dictionaries not adopted")
	}
	for i := 0; i < 25; i++ {
		e, ok := m.Get(uint64(i))
		if !ok || e != col.Entry(i) {
			t.Fatalf("entry %d not adopted verbatim", i)
		}
	}
	cs, ms := col.Stats(), m.Stats()
	if cs != ms {
		t.Fatalf("stats diverge: collection %+v, map %+v", cs, ms)
	}
	// Pair sampling draws identically for identical contents.
	a := col.SamplePairGBDs(500, 42)
	b := m.SamplePairGBDs(500, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d diverges: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestDeleteReleasesBranchRefs: deleting graphs drives their branch keys
// dead; an explicit compaction reclaims them without touching live keys.
func TestDeleteReleasesBranchRefs(t *testing.T) {
	m := New("t", 2)
	// Two graph families with disjoint branch shapes.
	keep, _ := m.Add(chain(m.Dict(), "keep", 4, "K"))
	var gone []uint64
	for i := 0; i < 8; i++ {
		id, _ := m.Add(chain(m.Dict(), fmt.Sprintf("gone%d", i), 7, "X"))
		gone = append(gone, id)
	}
	liveBefore := m.BranchDict().Stats().Live
	for _, id := range gone {
		m.Delete(id)
	}
	st := m.BranchDict().Stats()
	if st.Dead == 0 {
		t.Fatalf("no dead keys after deleting every X graph: %+v", st)
	}
	reclaimed := m.BranchDict().Compact()
	if reclaimed != st.Dead {
		t.Fatalf("compaction reclaimed %d of %d dead keys", reclaimed, st.Dead)
	}
	after := m.BranchDict().Stats()
	if after.Live >= liveBefore || after.Dead != 0 {
		t.Fatalf("post-compaction stats %+v (live before %d)", after, liveBefore)
	}
	// The kept graph's interned multiset still matches itself.
	e, _ := m.Get(keep)
	qids := m.BranchDict().ResolveMultiset(branch.MultisetOf(e.G.Unpack()))
	if branch.GBDIDs(qids, e.Branches) != 0 {
		t.Fatal("live interned set disturbed by compaction")
	}
}

// TestCommitCutIsAtomic: a batch locks only the shards it touches, yet no
// consistent cut sees part of it — every cut taken while batches of six
// inserts land on a 3-shard map holds a whole number of batches.
func TestCommitCutIsAtomic(t *testing.T) {
	const batches, size = 300, 6
	m := New("t", 3)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < batches; i++ {
			batch := make([]Mutation, size)
			for k := range batch {
				batch[k] = Mutation{Op: wal.OpStore, P: m.Prepare(chain(m.Dict(), fmt.Sprintf("b%d_%d", i, k), 3, "L"))}
			}
			if _, _, _, err := m.Commit(telemetry.OpCommit, batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	cuts := 0
	for running := true; running; cuts++ {
		select {
		case <-done:
			running = false
		default:
		}
		views, _ := m.Views(true)
		n := 0
		for _, v := range views {
			n += len(v.Entries)
		}
		if n%size != 0 {
			<-done
			t.Fatalf("cut %d holds %d entries, not whole batches of %d", cuts, n, size)
		}
	}
	if m.Len() != batches*size {
		t.Fatalf("Len = %d after %d batches of %d", m.Len(), batches, size)
	}
	t.Logf("%d cuts", cuts)
}

// TestConcurrentMutations hammers all mutation paths from many goroutines
// while cuts are taken concurrently — the -race exercise for the
// per-shard locking discipline. Invariants: cuts never tear (their entry
// count matches their epoch's consistency), the epoch only moves
// forward, and the final state reconciles adds minus deletes.
func TestConcurrentMutations(t *testing.T) {
	m := New("t", 4)
	seed := fill(m, 64)
	var wg sync.WaitGroup
	const workers = 6
	var deleted sync.Map
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				switch rng.Intn(3) {
				case 0:
					m.Add(chain(m.Dict(), fmt.Sprintf("w%d_%d", w, i), 3+rng.Intn(6), "W"))
				case 1:
					id := seed[rng.Intn(len(seed))]
					if ok, _ := m.Delete(id); ok {
						deleted.Store(id, true)
					}
				default:
					update(m, seed[rng.Intn(len(seed))], chain(m.Dict(), "u", 3+rng.Intn(6), "U"))
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		last := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			views, epoch := m.Views(true)
			if epoch < last {
				t.Error("epoch went backwards")
				return
			}
			last = epoch
			for _, v := range views {
				if v.Pre.Len() != len(v.Entries) {
					t.Error("torn cut: prefilter misaligned")
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	total := 0
	for _, n := range m.ShardSizes() {
		total += n
	}
	if total != m.Len() {
		t.Fatalf("shard sizes %d != Len %d", total, m.Len())
	}
	deleted.Range(func(k, _ any) bool {
		if _, ok := m.Get(k.(uint64)); ok {
			t.Errorf("deleted ID %d still present", k)
		}
		return true
	})
}

// TestPostingsFollowWrites: a bulk commit builds its shards' postings
// before it returns, leaving no stale slot; a few writes below the
// threshold leave changed and tail slots, which the shard rebuilds once it
// has gone settleAfter without a write.
func TestPostingsFollowWrites(t *testing.T) {
	m := New("t", 2)
	defer m.Close()
	batch := make([]Mutation, 400)
	for i := range batch {
		batch[i] = Mutation{Op: wal.OpStore, P: m.Prepare(chain(m.Dict(), fmt.Sprintf("g%d", i), 3+i%7, "L"))}
	}
	if _, _, _, err := m.Commit(telemetry.OpCommit, batch); err != nil {
		t.Fatal(err)
	}
	stale := func() int {
		views, _ := m.Views(true)
		n := 0
		for _, v := range views {
			n += v.Post.Stale(len(v.Entries))
		}
		return n
	}
	if s := stale(); s != 0 {
		t.Fatalf("%d stale slots after the bulk commit returned", s)
	}
	for id := uint64(0); id < 3; id++ {
		if _, err := m.Delete(id); err != nil {
			t.Fatal(err)
		}
		if _, err := update(m, 10+id, chain(m.Dict(), "u", 4, "M")); err != nil {
			t.Fatal(err)
		}
	}
	fill(m, 3)
	if s := stale(); s == 0 {
		t.Fatal("deletes, updates and inserts left no stale slot")
	}
	deadline := time.Now().Add(5 * time.Second)
	for stale() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d slots still stale %v after the last write", stale(), 5*time.Second)
		}
		time.Sleep(settleAfter / 10)
	}
	for i := range m.tele.Shards {
		if r := m.tele.Shards[i].Rebuilds.Load(); r < 2 {
			t.Fatalf("shard %d installed %d rebuilds, want the bulk one and the settling one", i, r)
		}
	}
}

// TestCommitBuildsPastThreshold: the Commit whose write leaves a shard's
// stale slots past max(rebuildMin, n/rebuildFrac) has built that shard's
// postings when it returns — no sleep, no poll — and a commit below the
// threshold adds one stale slot, unless the quiet timer built meanwhile.
func TestCommitBuildsPastThreshold(t *testing.T) {
	m := New("t", 1)
	defer m.Close()
	stale := func() int {
		views, _ := m.Views(true)
		return views[0].Post.Stale(len(views[0].Entries))
	}
	builds := func() uint64 { return m.tele.Shards[0].Rebuilds.Load() }
	crossed := 0
	for i := 0; crossed < 3; i++ {
		s, n, r := stale(), m.Len(), builds()
		if _, err := m.Add(chain(m.Dict(), fmt.Sprintf("g%d", i), 3+i%5, "L")); err != nil {
			t.Fatal(err)
		}
		if s+1 <= max(rebuildMin, (n+1)/rebuildFrac) {
			if got := stale(); got != s+1 && builds() == r {
				t.Fatalf("insert %d: %d stale slots, want %d", i, got, s+1)
			}
			continue
		}
		crossed++
		if got := stale(); got != 0 || builds() == r {
			t.Fatalf("insert %d crossed the threshold at %d graphs: %d stale slots and %d builds after it, want 0 and more than %d",
				i, n+1, got, builds(), r)
		}
	}
}

// refuseJournal fails the test on any journaling: a restore replays
// records that are durable already.
type refuseJournal struct{ t *testing.T }

func (j refuseJournal) Append(shard int, op wal.Op, id uint64, g graph.Packed) (Token, error) {
	j.t.Errorf("journaled %v of graph %d during a replay", op, id)
	return Token{}, nil
}

func (j refuseJournal) Wait(Token) error { return nil }

// TestReplay: a restored batch lands under the IDs it carries — stores
// and updates upsert, a delete removes its ID only if present — raises
// the ID sequence past every stored or updated ID, reports the first
// store that displaced a stored graph, and bumps the global epoch once
// per call that changed the store. It journals nothing, counts nothing
// and leaves the postings alone until BuildPostings.
func TestReplay(t *testing.T) {
	m := New("t", 3)
	m.SetJournal(refuseJournal{t})
	prep := func(name string, n int, label string) Prepared { return m.Prepare(chain(m.Dict(), name, n, label)) }
	named := func(id uint64) string {
		if e, ok := m.Get(id); ok {
			return e.G.Name
		}
		return ""
	}
	stale := func() int {
		views, _ := m.Views(true)
		checkColumns(t, views)
		n := 0
		for _, v := range views {
			n += v.Post.Stale(len(v.Entries))
		}
		return n
	}

	ids := []uint64{40, 3, 17, 8, 25, 11}
	batch := make([]Mutation, len(ids))
	shards := map[int]bool{}
	for i, id := range ids {
		batch[i] = Mutation{Op: wal.OpStore, ID: id, P: prep(fmt.Sprintf("s%d", id), 3+i%4, "L")}
		shards[m.ShardIndex(id)] = true
	}
	if len(shards) < 2 {
		t.Fatalf("the batch touches %d shard, want several", len(shards))
	}
	if id, dup := m.Replay(batch); dup {
		t.Fatalf("fresh IDs: Replay reported %d as repeated", id)
	}
	if m.Epoch() != 1 || m.NextID() != 41 || m.Len() != len(ids) {
		t.Fatalf("after the stores: epoch %d, next ID %d, %d graphs; want 1, 41, %d", m.Epoch(), m.NextID(), m.Len(), len(ids))
	}
	for _, id := range ids {
		if got := named(id); got != fmt.Sprintf("s%d", id) {
			t.Fatalf("ID %d holds %q", id, got)
		}
	}

	dead := m.BranchDict().Stats().Dead
	dupID, dup := m.Replay([]Mutation{
		{Op: wal.OpUpdate, ID: 50, P: prep("u50", 4, "U")},
		{Op: wal.OpUpdate, ID: 3, P: prep("u3", 5, "U")},
		{Op: wal.OpStore, ID: 17, P: prep("s17b", 6, "X")},
		{Op: wal.OpStore, ID: 8, P: prep("s8b", 6, "X")},
		{Op: wal.OpDelete, ID: 25},
		{Op: wal.OpDelete, ID: 99},
	})
	if !dup || dupID != 17 {
		t.Fatalf("Replay reported (%d, %v), want the first repeated store, 17", dupID, dup)
	}
	if m.Epoch() != 2 || m.NextID() != 51 || m.Len() != len(ids) {
		t.Fatalf("after the upserts: epoch %d, next ID %d, %d graphs; want 2, 51, %d", m.Epoch(), m.NextID(), m.Len(), len(ids))
	}
	for id, want := range map[uint64]string{50: "u50", 3: "u3", 17: "s17b", 8: "s8b", 25: "", 99: "", 40: "s40", 11: "s11"} {
		if got := named(id); got != want {
			t.Fatalf("ID %d holds %q, want %q", id, got, want)
		}
	}
	if m.BranchDict().Stats().Dead <= dead {
		t.Fatal("the displaced and deleted graphs' branches were not released")
	}

	// A batch that changes nothing moves neither the epoch nor the
	// sequence.
	m.Replay([]Mutation{{Op: wal.OpDelete, ID: 99}})
	m.Replay(nil)
	if m.Epoch() != 2 || m.NextID() != 51 {
		t.Fatalf("no-op replays: epoch %d, next ID %d; want 2, 51", m.Epoch(), m.NextID())
	}

	for i := range m.tele.Shards {
		if n, r := m.tele.Shards[i].Mutations.Load(), m.tele.Shards[i].Rebuilds.Load(); n != 0 || r != 0 {
			t.Fatalf("shard %d counted %d mutations and %d rebuilds during replay", i, n, r)
		}
	}
	if stale() == 0 {
		t.Fatal("Replay built postings")
	}
	m.BuildPostings()
	if s := stale(); s != 0 {
		t.Fatalf("%d stale slots after BuildPostings", s)
	}
	checkStats(t, m, "after replay")

	m.SetJournal(nil)
	if id, err := m.Add(chain(m.Dict(), "next", 3, "L")); err != nil || id != 51 {
		t.Fatalf("Add after replay: ID %d, %v; want 51", id, err)
	}
}
