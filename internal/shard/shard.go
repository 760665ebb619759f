// Package shard is the partitioned, mutable storage layer behind
// gsim.Database: a Map hashes stable graph IDs onto N shards, each owning
// its entry slice and the columns beside it, an epoch counter and a
// mutation lock — so ingest, delete and update on different shards
// proceed concurrently, and a search scatter-gathers over per-shard
// snapshots instead of serialising behind one collection-wide mutex.
//
// # Identity
//
// Every stored graph gets a stable uint64 ID at insert time, assigned in
// insertion order from one atomic sequence. The ID is the handle of the
// mutation API (Delete, Update), the hash input of shard placement, and
// the deterministic result order of scans: positions inside a shard move
// under swap-remove, IDs never do. A store built from a flat collection
// (FromCollection) keeps the collection's indexes as IDs, so the ID
// space of an unsharded seed and its sharded replacement coincide.
//
// # Concurrency model
//
// Mutations take exactly one shard's write lock (bulk Commit takes all of
// them, in index order, for the none-or-all contract of batch ingest).
// Readers never block writers for long: a snapshot copies slice headers
// under the shard read lock, and mutations publish fresh slices on
// delete/update (append-only inserts extend in place, which existing
// snapshot headers cannot observe). A Views call assembles a consistent
// cut across all shards by optimistic double-read of the global epoch,
// falling back to locking every shard if mutations keep racing the cut.
//
// # Epochs
//
// Each shard counts its own mutations; the Map derives the global epoch
// from them — it advances (inside the mutating shard's critical section)
// whenever any shard epoch does, with one advance per atomic mutation
// batch however many shards the batch touched. The counter is strictly
// monotonic, equal observations imply an identical store state, and a
// consistent cut labels the snapshot with the exact epoch its data
// corresponds to — the invalidation contract the serving layer's result
// cache (internal/qcache) keys on.
//
// # Prefilter
//
// The layered admissible filter (internal/index) reads two things per
// stored graph: its signature word, a shard column beside ids and sizes
// (sigs), and the label span its entry carries (db.Entry.Labels). Both are
// computed when the entry is stored — the signature straight from the
// graph, without allocating — so every cut carries the filter and no
// search has to build it.
//
// # Branch postings
//
// Each shard also keeps index.Postings, the inverted index from branch ID
// to slots a scan generates its candidates from. An insert costs nothing
// (the tail grows); a delete or update logs one changed slot. Once the
// changed slots plus the tail pass 1/rebuildFrac of the shard, a
// goroutine rebuilds the lists from a snapshot of the entries, off the
// shard lock, and installs them under it with the changes made since the
// snapshot carried over. A shard left stale by writes that then stop is
// rebuilt once it has been quiet for settleAfter.
package shard

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gsim/internal/branch"
	"gsim/internal/db"
	"gsim/internal/graph"
	"gsim/internal/index"
	"gsim/internal/telemetry"
	"gsim/internal/wal"
)

// cutRetries bounds the optimistic consistent-cut loop in Views before it
// falls back to locking every shard.
const cutRetries = 4

const (
	// rebuildFrac and rebuildMin set when a shard's postings are rebuilt:
	// once the slots every query must decide (changed plus tail) pass
	// max(rebuildMin, len/rebuildFrac). A rebuild reads every branch of the
	// shard, so it runs about once per len/rebuildFrac writes.
	rebuildFrac = 8
	rebuildMin  = 16
	// settleAfter is how long a shard with stale postings must go without
	// a write before it is rebuilt below the threshold: a store loaded
	// one graph at a time, then only read, ends with no stale slots.
	settleAfter = 250 * time.Millisecond
)

// Token identifies one journaled record for a later durability wait: the
// record's sequence number plus an opaque handle naming the log it went
// to. The zero Token waits for nothing.
type Token struct {
	Seq uint64
	H   any
}

// Journal is the write-ahead hook a durable database attaches to its
// store (SetJournal). Append is called inside the owning shard's critical
// section — mutations reach shard i's log in exactly the order they are
// applied — and must only buffer; Wait is called after the locks drop and
// blocks until the appended record is durable under the journal's fsync
// policy, so concurrent mutators group-commit instead of serialising
// their fsyncs behind the shard lock. g is nil for deletes.
type Journal interface {
	Append(shard int, op wal.Op, id uint64, g *graph.Graph) (Token, error)
	Wait(t Token) error
}

// Map is a sharded mutable graph store. Construct with New or
// FromCollection; all methods are safe for concurrent use.
type Map struct {
	name    string
	dict    *graph.Labels
	bdict   *db.BranchDict
	shards  []*bucket
	journal Journal       // nil for a purely in-memory store
	seq     atomic.Uint64 // next graph ID
	gepoch  atomic.Uint64 // global epoch: one advance per mutation batch

	sizes atomic.Pointer[sizesCache] // memoised DistinctSizes per epoch

	// postGen advances whenever a shard installs rebuilt postings, and
	// rebuilding counts the rebuilds in flight.
	postGen    atomic.Uint64
	rebuilding atomic.Int64

	// tele holds the store's telemetry: mutation-latency histograms per
	// op kind plus per-shard scanned/pruned/mutation counters (the scan
	// side is attributed by the search layer, which scans each shard's
	// View in its own span of positions).
	tele *telemetry.StoreMetrics
}

// Telemetry returns the store's metric group (never nil).
func (m *Map) Telemetry() *telemetry.StoreMetrics { return m.tele }

// observeMut records one applied mutation: end-to-end latency (journal
// wait included) into the op histogram, one tick on the owning shard.
func (m *Map) observeMut(op telemetry.MutOp, id uint64, start time.Time) {
	m.tele.Mut[op].Observe(time.Since(start))
	m.tele.Shards[m.ShardIndex(id)].Mutations.Add(1)
}

// sizesCache is one epoch's merged distinct-size list.
type sizesCache struct {
	epoch uint64
	sizes []int
}

// bucket is one shard: a slice of entries plus the structures that let
// mutations and scans address it independently of every other shard.
type bucket struct {
	mu      sync.RWMutex
	entries []*db.Entry
	// ids, sizes and sigs are columns parallel to entries — ids[i] is
	// entries[i].ID, sizes[i] is len(entries[i].Branches), the graph's
	// vertex count, and sigs[i] is index.Sig(entries[i].G) — published
	// under the same discipline (appended in place, copied on
	// delete/update). A scan decides most positions from a column and
	// never loads their Entry.
	ids   []uint64
	sizes []uint32
	sigs  []uint64
	// asc is a prefix length of ids known to ascend strictly: an append
	// above the last ID extends it, a swap-remove cuts it at the freed
	// slot.
	asc   int
	slots map[uint64]int // graph ID → position in entries
	epoch uint64         // mutations on this shard; guarded by mu
	st    stats

	// post is the shard's branch postings. While a rebuild is in flight,
	// next logs the changes made since its snapshot. settle is the quiet
	// timer, armed while the postings are stale and no rebuild runs;
	// settleEpoch is the epoch it last saw.
	post        index.Postings
	next        *index.Postings
	settle      *time.Timer
	settleEpoch uint64
	counters    *telemetry.ShardCounters
}

// stats is one shard's contribution to the collection statistics,
// refcounted so deletes subtract exactly what inserts added.
type stats struct {
	n          int
	sizes      map[int]int
	vLabels    map[graph.ID]int
	eLabels    map[graph.ID]int
	maxV, maxE int
	sumDeg     float64
}

func newStats() stats {
	return stats{
		sizes:   make(map[int]int),
		vLabels: make(map[graph.ID]int),
		eLabels: make(map[graph.ID]int),
	}
}

func (s *stats) add(g *graph.Graph) {
	s.n++
	s.sizes[g.NumVertices()]++
	if g.NumVertices() > s.maxV {
		s.maxV = g.NumVertices()
	}
	if g.NumEdges() > s.maxE {
		s.maxE = g.NumEdges()
	}
	s.sumDeg += g.AvgDegree()
	for v := 0; v < g.NumVertices(); v++ {
		if l := g.VertexLabel(v); l != graph.Epsilon {
			s.vLabels[l]++
		}
	}
	for _, ed := range g.Edges() {
		if ed.Label != graph.Epsilon {
			s.eLabels[ed.Label]++
		}
	}
}

// remove undoes add's counting for g, except the maxV / maxE marks, which
// only bucket.fixMaxima can recompute from the bucket's columns.
func (s *stats) remove(g *graph.Graph) {
	s.n--
	if s.sizes[g.NumVertices()]--; s.sizes[g.NumVertices()] == 0 {
		delete(s.sizes, g.NumVertices())
	}
	s.sumDeg -= g.AvgDegree()
	for v := 0; v < g.NumVertices(); v++ {
		if l := g.VertexLabel(v); l != graph.Epsilon {
			if s.vLabels[l]--; s.vLabels[l] == 0 {
				delete(s.vLabels, l)
			}
		}
	}
	for _, ed := range g.Edges() {
		if ed.Label != graph.Epsilon {
			if s.eLabels[ed.Label]--; s.eLabels[ed.Label] == 0 {
				delete(s.eLabels, ed.Label)
			}
		}
	}
}

// Shards normalises a shard-count choice: n ≤ 0 selects GOMAXPROCS.
func Shards(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// New returns an empty store with n shards (n ≤ 0: GOMAXPROCS) and fresh
// label and branch dictionaries.
func New(name string, n int) *Map {
	return NewWithDictionaries(name, n, graph.NewLabels(), db.NewBranchDict())
}

// NewWithDictionaries returns an empty store adopting existing label and
// branch dictionaries — the recovery constructor: the manifest's label
// alphabet is interned first so segment and WAL label references resolve,
// then the store is rebuilt into it.
func NewWithDictionaries(name string, n int, dict *graph.Labels, bdict *db.BranchDict) *Map {
	n = Shards(n)
	m := &Map{name: name, dict: dict, bdict: bdict, shards: make([]*bucket, n), tele: telemetry.NewStoreMetrics(n)}
	for i := range m.shards {
		m.shards[i] = &bucket{slots: make(map[uint64]int), st: newStats(), counters: &m.tele.Shards[i]}
	}
	return m
}

// SetJournal attaches the write-ahead hook every subsequent mutation
// flows through. It must be called before the store is shared between
// goroutines (recovery attaches the journal before the database is
// returned); it is not synchronised against in-flight mutations.
func (m *Map) SetJournal(j Journal) { m.journal = j }

// FromCollection distributes the collection entries whose indexes ids
// lists over n shards, in collection order, adopting the collection's
// label dictionary, branch dictionary and entries; nil lists every entry,
// and an unknown or repeated ID adds nothing. Entry IDs are the
// collection's own (its indexes), so the sharded store answers exactly
// like the flat one, and new graphs are numbered from the collection's
// length. The collection must not be mutated afterwards; reading it (the
// experiment harness does) is fine.
func FromCollection(col *db.Collection, ids []int, n int) *Map {
	m := New(col.Name, n)
	m.dict = col.Dict
	m.bdict = col.BranchDict()
	var listed []bool
	if ids != nil {
		listed = make([]bool, col.Len())
		for _, id := range ids {
			if id >= 0 && id < len(listed) {
				listed[id] = true
			}
		}
	}
	for _, e := range col.Entries() {
		if listed == nil || listed[e.ID] {
			m.shardOf(e.ID).insert(e)
		}
	}
	for _, b := range m.shards {
		b.post = index.BuildPostings(b.entries)
	}
	m.seq.Store(uint64(col.Len()))
	return m
}

// mix64 is the SplitMix64 finaliser: a cheap, well-distributed hash from
// sequential IDs to shard indexes, so placement stays balanced whatever
// the insert/delete pattern.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (m *Map) shardOf(id uint64) *bucket {
	return m.shards[mix64(id)%uint64(len(m.shards))]
}

// ShardIndex reports which shard holds id — exposed for tests and
// diagnostics; callers address graphs by ID only.
func (m *Map) ShardIndex(id uint64) int {
	return int(mix64(id) % uint64(len(m.shards)))
}

// NumShards reports the shard count.
func (m *Map) NumShards() int { return len(m.shards) }

// Name returns the store name.
func (m *Map) Name() string { return m.name }

// Dict returns the shared label dictionary.
func (m *Map) Dict() *graph.Labels { return m.dict }

// BranchDict returns the shared branch dictionary.
func (m *Map) BranchDict() *db.BranchDict { return m.bdict }

// Epoch returns the global store version, bumped by every mutation (once
// per atomic batch). Strictly monotonic; equal observations imply an
// unchanged store.
func (m *Map) Epoch() uint64 { return m.gepoch.Load() }

// NextID reports the next graph ID the store would assign — the exclusive
// upper bound of the ID space used so far.
func (m *Map) NextID() uint64 { return m.seq.Load() }

// Len reports the number of stored graphs.
func (m *Map) Len() int {
	n := 0
	for _, b := range m.shards {
		b.mu.RLock()
		n += b.st.n
		b.mu.RUnlock()
	}
	return n
}

// intern computes and interns a graph's branch multiset.
func (m *Map) intern(g *graph.Graph) branch.IDs {
	return m.bdict.InternMultiset(branch.MultisetOf(g))
}

// insert appends e to the bucket; the caller holds b.mu.
func (b *bucket) insert(e *db.Entry) {
	b.entries = append(b.entries, e)
	if n := len(b.ids); b.asc == n && (n == 0 || b.ids[n-1] < e.ID) {
		b.asc++
	}
	b.ids = append(b.ids, e.ID)
	b.sizes = append(b.sizes, uint32(len(e.Branches)))
	b.sigs = append(b.sigs, index.Sig(e.G))
	b.slots[e.ID] = len(b.entries) - 1
	b.st.add(e.G)
}

// removeAt swap-removes the entry at slot and returns it, publishing
// fresh slices so snapshots handed to in-flight scans are never mutated,
// and subtracts it from the shard's stats; the caller holds b.mu and is
// responsible for refcounts and epochs.
func (b *bucket) removeAt(slot int) *db.Entry {
	n := len(b.entries)
	victim := b.entries[slot]
	fresh := make([]*db.Entry, n-1)
	copy(fresh, b.entries[:n-1])
	ids := make([]uint64, n-1)
	copy(ids, b.ids[:n-1])
	sizes := make([]uint32, n-1)
	copy(sizes, b.sizes[:n-1])
	sigs := make([]uint64, n-1)
	copy(sigs, b.sigs[:n-1])
	if slot != n-1 {
		fresh[slot], ids[slot], sizes[slot], sigs[slot] = b.entries[n-1], b.ids[n-1], b.sizes[n-1], b.sigs[n-1]
		b.slots[ids[slot]] = slot
	}
	delete(b.slots, victim.ID)
	b.entries, b.ids, b.sizes, b.sigs = fresh, ids, sizes, sigs
	b.asc = min(b.asc, slot)
	b.post.Removed(slot, n)
	if b.next != nil {
		b.next.Removed(slot, n)
	}
	b.st.remove(victim.G)
	b.fixMaxima(victim.G)
	return victim
}

// replaceAt swaps a new entry into slot (same ID, new graph) and returns
// the one it displaced, publishing fresh slices — the ids column stays,
// the ID does — and moving the shard's stats from the old graph to the
// new; the caller holds b.mu and is responsible for refcounts and epochs.
func (b *bucket) replaceAt(slot int, e *db.Entry) *db.Entry {
	old := b.entries[slot]
	fresh := make([]*db.Entry, len(b.entries))
	copy(fresh, b.entries)
	fresh[slot] = e
	sizes := make([]uint32, len(b.sizes))
	copy(sizes, b.sizes)
	sizes[slot] = uint32(len(e.Branches))
	sigs := make([]uint64, len(b.sigs))
	copy(sigs, b.sigs)
	sigs[slot] = index.Sig(e.G)
	b.entries, b.sizes, b.sigs = fresh, sizes, sigs
	b.post.Replaced(slot)
	if b.next != nil {
		b.next.Replaced(slot)
	}
	b.st.remove(old.G)
	b.st.add(e.G)
	b.fixMaxima(old.G)
	return old
}

// bump records one mutation on b; the caller holds b.mu. The global
// epoch moves inside the critical section so a consistent cut can never
// observe the data change without its epoch.
func (m *Map) bump(b *bucket) {
	b.epoch++
	m.gepoch.Add(1)
	m.maintain(b)
}

// maintain looks at b's postings after a write; the caller holds b.mu.
// Past the threshold it starts a rebuild; below it, it arms the quiet
// timer, which rebuilds once b has gone settleAfter without a write.
func (m *Map) maintain(b *bucket) {
	n := len(b.entries)
	stale := b.post.Stale(n)
	switch {
	case b.next != nil || stale == 0:
	case stale > max(rebuildMin, n/rebuildFrac):
		m.rebuild(b)
	case b.settle == nil:
		b.settleEpoch = b.epoch
		b.settle = time.AfterFunc(settleAfter, func() { m.settled(b) })
	}
}

// settled is the quiet timer: a shard written to since it was armed
// waits another settleAfter, a quiet one with stale postings rebuilds.
func (m *Map) settled(b *bucket) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.epoch != b.settleEpoch {
		b.settleEpoch = b.epoch
		b.settle.Reset(settleAfter)
		return
	}
	b.settle = nil
	if b.next == nil && b.post.Stale(len(b.entries)) > 0 {
		m.rebuild(b)
	}
}

// rebuild starts a postings rebuild of b from a snapshot of its entries;
// the caller holds b.mu. The lists are built off the lock and installed
// under it, with the changes logged since the snapshot carried over. The
// goroutine ends once it has installed them; b.next marks the one that
// may run per shard, and WaitRebuilds waits for them all.
func (m *Map) rebuild(b *bucket) {
	snap := b.entries
	log := index.NewLog(len(snap))
	b.next = &log
	m.rebuilding.Add(1)
	go func() {
		defer m.rebuilding.Add(-1)
		built := index.BuildPostings(snap)
		b.mu.Lock()
		b.post, b.next = built.Carry(*b.next), nil
		m.postGen.Add(1)
		b.counters.Rebuilds.Add(1)
		m.maintain(b)
		b.mu.Unlock()
	}()
}

// WaitRebuilds blocks until no postings rebuild is in flight, for callers
// that want every shard's postings installed before they look.
func (m *Map) WaitRebuilds() {
	for m.rebuilding.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
}

// PostingsGen advances whenever a shard installs rebuilt postings. A cut
// taken at an older value still answers exactly, from staler lists.
func (m *Map) PostingsGen() uint64 { return m.postGen.Load() }

// Add stores g under a fresh ID and returns it. Only the owning shard is
// locked, so Adds of different graphs run concurrently. With a journal
// attached, a nil error means the mutation is durable under the
// journal's fsync policy; on a journal error the mutation is either not
// applied (append failed) or applied but of unknown durability (wait
// failed, which poisons the journal for every later mutation anyway).
func (m *Map) Add(g *graph.Graph) (uint64, error) {
	start := time.Now()
	ids := m.intern(g)
	id := m.seq.Add(1) - 1
	e := db.NewEntry(id, g, ids)
	b := m.shardOf(id)
	b.mu.Lock()
	tok, err := m.jappend(id, wal.OpStore, id, g)
	if err != nil {
		b.mu.Unlock()
		m.bdict.Release(ids)
		return 0, err
	}
	b.insert(e)
	m.bump(b)
	b.mu.Unlock()
	err = m.jwait(tok)
	m.observeMut(telemetry.OpAdd, id, start)
	return id, err
}

// jappend journals one record for the shard owning id; the caller holds
// that shard's write lock. A nil journal appends nothing.
func (m *Map) jappend(id uint64, op wal.Op, recID uint64, g *graph.Graph) (Token, error) {
	if m.journal == nil {
		return Token{}, nil
	}
	return m.journal.Append(m.ShardIndex(id), op, recID, g)
}

// jwait blocks until a journaled record is durable; called outside the
// shard locks so concurrent mutators share fsyncs.
func (m *Map) jwait(tok Token) error {
	if m.journal == nil || tok.H == nil {
		return nil
	}
	return m.journal.Wait(tok)
}

// Delete removes the graph with the given ID: tombstone-free swap-remove
// inside its shard, column resync, stats subtraction and a branch-
// dictionary release (which may trigger compaction). It reports whether
// the ID existed. The next consistent cut — and therefore the next
// search — no longer sees the graph.
func (m *Map) Delete(id uint64) (bool, error) {
	start := time.Now()
	b := m.shardOf(id)
	b.mu.Lock()
	slot, ok := b.slots[id]
	if !ok {
		b.mu.Unlock()
		return false, nil
	}
	tok, err := m.jappend(id, wal.OpDelete, id, nil)
	if err != nil {
		b.mu.Unlock()
		return false, err
	}
	e := b.removeAt(slot)
	m.bump(b)
	b.mu.Unlock()
	m.bdict.Release(e.Branches)
	err = m.jwait(tok)
	m.observeMut(telemetry.OpDelete, id, start)
	return true, err
}

// Update replaces the graph stored under id with g, keeping the ID (and
// therefore the shard). It reports whether the ID existed; when it does
// not, nothing is interned or released.
func (m *Map) Update(id uint64, g *graph.Graph) (bool, error) {
	start := time.Now()
	b := m.shardOf(id)
	b.mu.Lock()
	slot, ok := b.slots[id]
	if !ok {
		b.mu.Unlock()
		return false, nil
	}
	tok, err := m.jappend(id, wal.OpUpdate, id, g)
	if err != nil {
		b.mu.Unlock()
		return false, err
	}
	old := b.replaceAt(slot, db.NewEntry(id, g, m.intern(g)))
	m.bump(b)
	b.mu.Unlock()
	m.bdict.Release(old.Branches)
	err = m.jwait(tok)
	m.observeMut(telemetry.OpUpdate, id, start)
	return true, err
}

// fixMaxima keeps the shard's high-water marks exact after gone left the
// bucket (removed, or replaced — its replacement already counted by
// stats.add); removeAt and replaceAt call it under b.mu. A mark is
// recomputed only when gone held it: the rescan runs inside the shard's
// write lock, and a graph below both marks — nearly every one — cannot
// have moved either. The vertex mark reads the sizes column; the edge
// mark has no column and walks the graphs.
func (b *bucket) fixMaxima(gone *graph.Graph) {
	if gone.NumVertices() == b.st.maxV {
		b.st.maxV = 0
		for _, v := range b.sizes {
			if int(v) > b.st.maxV {
				b.st.maxV = int(v)
			}
		}
	}
	if gone.NumEdges() == b.st.maxE {
		b.st.maxE = 0
		for _, e := range b.entries {
			if e.G.NumEdges() > b.st.maxE {
				b.st.maxE = e.G.NumEdges()
			}
		}
	}
}

// Mutation is one entry of a Commit batch: a fresh insert when ID is nil,
// an in-place update of *ID otherwise.
type Mutation struct {
	ID *uint64
	G  *graph.Graph
}

// Commit applies a batch of inserts and updates atomically: every shard
// is locked (in index order) for the duration, so a concurrent search
// sees none or all of the batch — the contract bulk ingest exposes. On
// an unknown update ID nothing is changed and the missing ID is
// returned; otherwise Commit returns the ID of the first insert (the
// rest follow contiguously) and true. A batch with no inserts returns
// the store's next ID. With a journal attached, every record of the
// batch is journaled before any is applied, and Commit returns only
// once all of them are durable; batch durability is per record, not
// atomic — a crash mid-flush may persist a prefix of an unacknowledged
// batch, which recovery replays (the none-or-all contract binds live
// observers, acknowledgement still implies the whole batch survived).
func (m *Map) Commit(batch []Mutation) (firstID uint64, missing uint64, ok bool, err error) {
	start := time.Now()
	firstID, missing, ok, toks, err := m.commitLocked(batch)
	if err != nil || !ok {
		return firstID, missing, ok, err
	}
	for h, seq := range toks {
		if werr := m.journal.Wait(Token{Seq: seq, H: h}); werr != nil {
			return firstID, 0, true, werr
		}
	}
	m.tele.Mut[telemetry.OpCommit].Observe(time.Since(start))
	next := firstID
	for _, mu := range batch {
		id := next
		if mu.ID != nil {
			id = *mu.ID
		} else {
			next++
		}
		m.tele.Shards[m.ShardIndex(id)].Mutations.Add(1)
	}
	return firstID, 0, true, nil
}

// commitLocked is Commit's critical section: validate, journal, apply,
// all under every shard lock. It returns one max-sequence token per
// journal log touched, for the caller to wait on after the locks drop.
func (m *Map) commitLocked(batch []Mutation) (firstID uint64, missing uint64, ok bool, toks map[any]uint64, err error) {
	for _, b := range m.shards {
		b.mu.Lock()
	}
	defer func() {
		for _, b := range m.shards {
			b.mu.Unlock()
		}
	}()
	// Validate first: none-or-all.
	inserts := uint64(0)
	for _, mu := range batch {
		if mu.ID == nil {
			inserts++
			continue
		}
		if _, exists := m.shardOf(*mu.ID).slots[*mu.ID]; !exists {
			return 0, *mu.ID, false, nil, nil
		}
	}
	// Reserve the whole insert run in one atomic step: a concurrent Add
	// claims its ID from the same sequence before blocking on the shard
	// lock, so a Load-then-Add-per-insert loop would let foreign IDs
	// interleave into the "contiguous" run this function promises.
	if inserts == 0 {
		firstID = m.seq.Load()
	} else {
		firstID = m.seq.Add(inserts) - inserts
	}
	// Journal the whole batch before applying any of it: an append
	// failure then leaves the in-memory store untouched.
	if m.journal != nil {
		toks = make(map[any]uint64)
		next := firstID
		for _, mu := range batch {
			id := next
			op := wal.OpStore
			if mu.ID != nil {
				id, op = *mu.ID, wal.OpUpdate
			} else {
				next++
			}
			tok, jerr := m.jappend(id, op, id, mu.G)
			if jerr != nil {
				return 0, 0, false, nil, jerr
			}
			if tok.Seq > toks[tok.H] {
				toks[tok.H] = tok.Seq
			}
		}
	}
	next := firstID
	touched := make(map[*bucket]struct{})
	var released []branch.IDs
	for _, mu := range batch {
		if mu.ID == nil {
			id := next
			next++
			b := m.shardOf(id)
			b.insert(db.NewEntry(id, mu.G, m.intern(mu.G)))
			touched[b] = struct{}{}
			continue
		}
		b := m.shardOf(*mu.ID)
		old := b.replaceAt(b.slots[*mu.ID], db.NewEntry(*mu.ID, mu.G, m.intern(mu.G)))
		released = append(released, old.Branches)
		touched[b] = struct{}{}
	}
	for b := range touched {
		b.epoch++
		m.maintain(b)
	}
	if len(touched) > 0 {
		// One global bump for the whole batch: a Commit is one atomic
		// mutation to observers (the "one epoch bump" contract bulk
		// ingest documents), however many shards it touched.
		m.gepoch.Add(1)
	}
	// Release after the epoch bumps: compaction may run inside Release,
	// and the new state must already be published.
	for _, ids := range released {
		m.bdict.Release(ids)
	}
	return firstID, 0, true, toks, nil
}

// Install bulk-inserts recovered entries without journaling them — they
// came from a snapshot segment, so they are durable already. Entries are
// placed by their existing IDs; the ID sequence is raised past the
// largest installed ID. Safe to call concurrently (parallel segment
// loads Install as they decode), but IDs must be distinct across all
// calls — segment files are disjoint by construction.
func (m *Map) Install(entries []*db.Entry) {
	if len(entries) == 0 {
		return
	}
	groups := make(map[*bucket][]*db.Entry, len(m.shards))
	maxID := uint64(0)
	for _, e := range entries {
		b := m.shardOf(e.ID)
		groups[b] = append(groups[b], e)
		if e.ID > maxID {
			maxID = e.ID
		}
	}
	for b, es := range groups {
		b.mu.Lock()
		for _, e := range es {
			b.insert(e)
		}
		m.bump(b)
		b.mu.Unlock()
	}
	m.EnsureSeq(maxID + 1)
}

// Replay applies one recovered WAL record without journaling it again:
// stores and updates upsert by ID (an update's target may live in a
// snapshot segment or earlier in the same log), deletes remove if
// present. Safe to call concurrently for records of different shards;
// records of one shard must be replayed in log order, which per-shard
// logs give for free.
func (m *Map) Replay(op wal.Op, id uint64, g *graph.Graph) {
	b := m.shardOf(id)
	if op == wal.OpDelete {
		b.mu.Lock()
		if slot, ok := b.slots[id]; ok {
			e := b.removeAt(slot)
			m.bump(b)
			b.mu.Unlock()
			m.bdict.Release(e.Branches)
			return
		}
		b.mu.Unlock()
		return
	}
	e := db.NewEntry(id, g, m.intern(g))
	b.mu.Lock()
	var old branch.IDs
	if slot, ok := b.slots[id]; ok {
		old = b.replaceAt(slot, e).Branches
	} else {
		b.insert(e)
	}
	m.bump(b)
	b.mu.Unlock()
	if old != nil {
		m.bdict.Release(old)
	}
	m.EnsureSeq(id + 1)
}

// EnsureSeq raises the ID sequence to at least n (never lowers it), so
// recovered stores keep assigning fresh IDs above everything replayed.
func (m *Map) EnsureSeq(n uint64) {
	for {
		cur := m.seq.Load()
		if cur >= n || m.seq.CompareAndSwap(cur, n) {
			return
		}
	}
}

// CutRotate takes a checkpoint cut: shard by shard, it acquires the
// write lock, snapshots the entry slice, and calls rotate(i) inside the
// critical section — the journal swaps shard i's log there, so every
// record in the old log is reflected in the snapshot and every mutation
// after it lands in the new log. Locks are taken one at a time: a batch
// Commit (which holds all shard locks) is therefore entirely before or
// entirely after the cut on any given shard, and the per-shard
// snapshot+log pair stays exact even when a batch straddles the cut
// across shards. Returns the per-shard snapshots and the global epoch.
func (m *Map) CutRotate(rotate func(shard int) error) ([][]*db.Entry, uint64, error) {
	cuts := make([][]*db.Entry, len(m.shards))
	for i, b := range m.shards {
		b.mu.Lock()
		cuts[i] = b.entries
		err := rotate(i)
		b.mu.Unlock()
		if err != nil {
			return nil, 0, err
		}
	}
	return cuts, m.gepoch.Load(), nil
}

// Get returns the entry stored under id.
func (m *Map) Get(id uint64) (*db.Entry, bool) {
	b := m.shardOf(id)
	b.mu.RLock()
	defer b.mu.RUnlock()
	slot, ok := b.slots[id]
	if !ok {
		return nil, false
	}
	return b.entries[slot], true
}

// View is one shard's contribution to a consistent cut: immutable slices
// (never written after publication) plus the shard epoch they correspond
// to. IDs, Sizes and Pre's signature column run parallel to Entries
// (IDs[i] is Entries[i].ID, Sizes[i] its branch count); IDs[:Asc]
// ascends strictly. Post is the shard's branch postings.
type View struct {
	Entries []*db.Entry
	Pre     index.View
	Post    index.Postings
	Epoch   uint64
	IDs     []uint64
	Sizes   []uint32
	Asc     int
}

// Views assembles a consistent cut across every shard: per-shard snapshot
// slices plus the global epoch the cut corresponds to. The cut is
// optimistic — snapshot all shards, then verify the global epoch did not
// move — and falls back to locking every shard when mutations keep
// winning the race. Every cut carries the prefilter's signature columns,
// so withPre is not read: it stays because benchmark/ladder.go passes it,
// and callers pass true.
func (m *Map) Views(withPre bool) ([]View, uint64) {
	for attempt := 0; attempt < cutRetries; attempt++ {
		before := m.gepoch.Load()
		views := m.snapshot()
		if m.gepoch.Load() == before {
			return views, before
		}
	}
	// Contended: take every shard lock for a guaranteed cut.
	for _, b := range m.shards {
		b.mu.RLock()
	}
	views := make([]View, len(m.shards))
	for i, b := range m.shards {
		views[i] = b.view()
	}
	epoch := m.gepoch.Load()
	for _, b := range m.shards {
		b.mu.RUnlock()
	}
	return views, epoch
}

// snapshot copies every shard's slice headers under its read lock.
func (m *Map) snapshot() []View {
	views := make([]View, len(m.shards))
	for i, b := range m.shards {
		b.mu.RLock()
		views[i] = b.view()
		b.mu.RUnlock()
	}
	return views
}

// view builds b's View; the caller holds b.mu (read suffices).
func (b *bucket) view() View {
	return View{Entries: b.entries, Pre: index.View{Sig: b.sigs}, Post: b.post, Epoch: b.epoch, IDs: b.ids, Sizes: b.sizes, Asc: b.asc}
}

// PrefilterMem sums the prefilter's footprint over the shards: their
// signature columns and the label spans their entries hold.
func (m *Map) PrefilterMem() index.MemStats {
	var st index.MemStats
	for _, b := range m.shards {
		b.mu.RLock()
		st.Entries += len(b.entries)
		st.SigBytes += int64(8 * len(b.sigs))
		for _, e := range b.entries {
			st.ArenaBytes += int64(len(e.Labels)) + 16 // the string header
		}
		b.mu.RUnlock()
	}
	return st
}

// Ordered returns a consistent cut's entries sorted by ID — insertion
// order, the logical-collection view that persistence, prior sampling and
// rank-ordered consumers (GBDA-V1 size sampling) read. O(n log n).
func (m *Map) Ordered() []*db.Entry {
	views, _ := m.Views(true)
	return OrderViews(views)
}

// OrderViews flattens a cut into one ID-sorted entry slice.
func OrderViews(views []View) []*db.Entry {
	n := 0
	for _, v := range views {
		n += len(v.Entries)
	}
	out := make([]*db.Entry, 0, n)
	for _, v := range views {
		out = append(out, v.Entries...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SamplePairGBDs draws the offline stage's deterministic pair sample over
// the ID-ordered snapshot — the same pairs, in the same order, as the
// flat collection draws for the same seed and contents.
func (m *Map) SamplePairGBDs(n int, seed int64) []float64 {
	return db.SamplePairGBDsEntries(m.Ordered(), n, seed)
}

// Stats merges the per-shard statistics into the collection summary (the
// shape of the paper's Table III). Label and size counts are refcounted
// per shard, so deletes subtract exactly; the merged distinct-label
// counts are unions, not sums.
func (m *Map) Stats() db.Stats {
	var s db.Stats
	vl := make(map[graph.ID]struct{})
	el := make(map[graph.ID]struct{})
	var sumDeg float64
	for _, b := range m.shards {
		b.mu.RLock()
		s.Graphs += b.st.n
		if b.st.maxV > s.MaxV {
			s.MaxV = b.st.maxV
		}
		if b.st.maxE > s.MaxE {
			s.MaxE = b.st.maxE
		}
		sumDeg += b.st.sumDeg
		for l := range b.st.vLabels {
			vl[l] = struct{}{}
		}
		for l := range b.st.eLabels {
			el[l] = struct{}{}
		}
		b.mu.RUnlock()
	}
	s.LV, s.LE = len(vl), len(el)
	if s.Graphs > 0 {
		s.AvgDegree = sumDeg / float64(s.Graphs)
	}
	return s
}

// DistinctSizes merges the per-shard vertex-count histograms into the
// ascending distinct sizes of stored graphs — the sizes a posterior
// table prebuilds rows for. The merge is memoised per epoch (search
// preparation calls this on every GBDA-family prepare); callers must not
// mutate the returned slice. The epoch is read before the merge, so a
// racing mutation at worst stores a conservative entry that the next
// call rebuilds.
func (m *Map) DistinctSizes() []int {
	epoch := m.gepoch.Load()
	if c := m.sizes.Load(); c != nil && c.epoch == epoch {
		return c.sizes
	}
	set := make(map[int]struct{})
	for _, b := range m.shards {
		b.mu.RLock()
		for v := range b.st.sizes {
			set[v] = struct{}{}
		}
		b.mu.RUnlock()
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	m.sizes.Store(&sizesCache{epoch: epoch, sizes: out})
	return out
}

// ShardSizes reports the current entry count of every shard — placement
// diagnostics for /v1/stats and the balance tests.
func (m *Map) ShardSizes() []int {
	out := make([]int, len(m.shards))
	for i, b := range m.shards {
		b.mu.RLock()
		out[i] = len(b.entries)
		b.mu.RUnlock()
	}
	return out
}
