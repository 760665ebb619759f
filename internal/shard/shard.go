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
// insertion order from one atomic sequence. The ID is the handle of an
// update or delete, the hash input of shard placement, and
// the deterministic result order of scans: positions inside a shard move
// under swap-remove, IDs never do. A store built from a flat collection
// (FromCollection) keeps the collection's indexes as IDs, so the ID
// space of an unsharded seed and its sharded replacement coincide.
//
// # Concurrency model
//
// Every write is a Commit batch, which takes the write locks of the shards
// it touches, and only those, in ascending index order: a one-graph write
// locks one shard, so writes to different shards run concurrently.
// Readers never block writers for long: a snapshot copies slice headers
// under the shard read lock, and mutations publish fresh slices on
// delete/update (append-only inserts extend in place, which existing
// snapshot headers cannot observe). A Views call assembles a consistent
// cut across all shards by optimistic double-read of the global epoch,
// which a batch bumps once while it still holds its locks, so a cut
// that saw part of a batch retries; after cutRetries it falls back to
// read-locking every shard.
//
// # Epochs
//
// Each shard counts its own mutations; the global epoch advances (inside
// the batch's critical section) whenever any shard epoch does, once per
// batch however many shards the batch touched. The counter is strictly
// monotonic, equal observations imply an identical store state, and a
// consistent cut labels the snapshot with the exact epoch its data
// corresponds to, which every search result reports.
//
// # Prefilter
//
// The layered admissible filter (internal/index) reads two things per
// stored graph: its signature word, a shard column beside ids and sizes
// (sigs), and the label span its entry carries (db.Entry.Labels). Both are
// computed when the entry is prepared, before any lock is taken, so every
// cut carries the filter and no search has to build it. The columns and
// the shard statistics read only an entry's span and branch count: a
// stored graph stays packed (db.Entry.G) from insert to delete.
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
	"fmt"
	"math"
	"runtime"
	"slices"
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
// their fsyncs behind the shard lock. g is the zero Packed for deletes.
type Journal interface {
	Append(shard int, op wal.Op, id uint64, g graph.Packed) (Token, error)
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
	// entries[i].ID, sizes[i] is entries[i].Branches.Len(), the graph's
	// vertex count, and sigs[i] is index.SpanSig(entries[i].Labels) — published
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
	st    db.Tally       // this shard's contribution to the store statistics

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
		m.shards[i] = &bucket{slots: make(map[uint64]int), st: db.NewTally(), counters: &m.tele.Shards[i]}
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
			m.shardOf(e.ID).insert(e, index.SpanSig(e.Labels))
		}
	}
	universe := m.bdict.Universe()
	for _, b := range m.shards {
		b.post = index.NewPostings(b.entries, universe)
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
		n += b.st.Len()
		b.mu.RUnlock()
	}
	return n
}

// Prepared is a graph made ready to store before any lock is taken: its
// entry (packed graph, label span, interned branches; an insert's ID is
// set when it commits) and its signature word. A Prepared that is not
// stored must be discarded (Discard), which releases its branches.
type Prepared struct {
	e    *db.Entry
	sig  uint64
	mark uint32 // the branch dictionary's universe before the intern
}

// Prepare makes g ready to store. The graph is not referenced afterwards.
func (m *Map) Prepare(g *graph.Graph) Prepared { return m.Intern(Stage(g)) }

// Staged is the share of Prepare that reads no shared state: a graph's
// entry (packed graph and label span) with its branches not yet
// interned, its canonical branch multiset and its signature word. Any
// number of goroutines may stage graphs at once; Intern finishes each,
// in the order that numbers the branches.
type Staged struct {
	e   *db.Entry
	ms  branch.Multiset
	sig uint64
}

// Stage does g's share of Prepare. The graph is not referenced
// afterwards.
func Stage(g *graph.Graph) Staged {
	e := db.NewEntry(0, g, branch.Coded{})
	return Staged{e: e, ms: branch.MultisetOf(g), sig: index.SpanSig(e.Labels)}
}

// Intern finishes a staged graph: it interns the graph's branches into
// the store's dictionary. A Staged is interned at most once.
func (m *Map) Intern(s Staged) Prepared {
	c, mark := m.bdict.InternMultisetMark(s.ms)
	s.e.Branches = c
	return Prepared{e: s.e, sig: s.sig, mark: mark}
}

// Graph returns the packed graph p stores.
func (p Prepared) Graph() graph.Packed { return p.e.G }

// Discard releases the branches of a batch's prepared graphs, which were
// not stored; a delete has none and is skipped. Branch keys the prepares
// created leave the dictionary with them, so a failed write leaves the
// dictionary's live and dead counts as it found them.
func (m *Map) Discard(batch []Mutation) {
	mark := uint32(math.MaxUint32)
	var sets []branch.Coded
	for _, mu := range batch {
		if mu.P.e != nil {
			mark = min(mark, mu.P.mark)
			sets = append(sets, mu.P.e.Branches)
		}
	}
	if len(sets) > 0 {
		m.bdict.Unintern(mark, sets)
	}
}

// insert appends e, whose signature word is sig, to the bucket; the
// caller holds b.mu.
func (b *bucket) insert(e *db.Entry, sig uint64) {
	b.entries = append(b.entries, e)
	if n := len(b.ids); b.asc == n && (n == 0 || b.ids[n-1] < e.ID) {
		b.asc++
	}
	b.ids = append(b.ids, e.ID)
	b.sizes = append(b.sizes, uint32(e.Branches.Len()))
	b.sigs = append(b.sigs, sig)
	b.slots[e.ID] = len(b.entries) - 1
	b.st.Add(e.Labels)
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
	b.st.Remove(victim.Labels)
	return victim
}

// replaceAt swaps a new entry, whose signature word is sig, into slot
// (same ID, new graph) and returns the one it displaced, publishing fresh
// slices — the ids column stays, the ID does — and moving the shard's
// stats from the old graph to the new; the caller holds b.mu and is
// responsible for refcounts and epochs.
func (b *bucket) replaceAt(slot int, e *db.Entry, sig uint64) *db.Entry {
	old := b.entries[slot]
	fresh := make([]*db.Entry, len(b.entries))
	copy(fresh, b.entries)
	fresh[slot] = e
	sizes := make([]uint32, len(b.sizes))
	copy(sizes, b.sizes)
	sizes[slot] = uint32(e.Branches.Len())
	sigs := make([]uint64, len(b.sigs))
	copy(sigs, b.sigs)
	sigs[slot] = sig
	b.entries, b.sizes, b.sigs = fresh, sizes, sigs
	b.post.Replaced(slot)
	if b.next != nil {
		b.next.Replaced(slot)
	}
	b.st.Remove(old.Labels)
	b.st.Add(e.Labels)
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
		// The universe, read after the snapshot, bounds its branch IDs.
		built := index.NewPostings(snap, m.bdict.Universe())
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

// Mutation is one entry of a Commit batch. Op says what it does: OpStore
// inserts P under a fresh ID (Commit assigns ID), OpUpdate replaces the
// graph stored under ID with P, OpDelete removes ID and carries no P. P is
// prepared (Prepare) before Commit takes any lock.
type Mutation struct {
	Op wal.Op
	ID uint64
	P  Prepared
}

// Commit applies a batch of mutations atomically and is the store's one
// live write (Install and Replay only rebuild a recovered store). It
// reserves the inserts' IDs (contiguous from the returned first ID; the
// store's next ID when there are none), then locks only the shards the
// batch touches, in ascending index order, and bumps the global epoch
// once inside those locks, so no consistent cut (Views) sees part of a
// batch. On an update or delete of an unknown ID nothing changes: the
// missing ID is returned with ok false, the reserved IDs are handed back
// unless a later batch reserved past them, and the prepared graphs are
// discarded, as they are on a journal append error.
//
// With a journal attached, every record of the batch is journaled before
// any is applied, and Commit returns once all of them are durable; a wait
// error leaves the batch applied, of unknown durability. Durability is
// per record, not atomic — a crash mid-flush may persist a prefix of an
// unacknowledged batch, which recovery replays (the none-or-all contract
// binds live observers, acknowledgement still implies the whole batch
// survived). op labels the batch's latency in the store's telemetry; each
// applied mutation ticks its shard's counter even when the wait fails.
func (m *Map) Commit(op telemetry.MutOp, batch []Mutation) (firstID, missing uint64, ok bool, err error) {
	if len(batch) == 0 {
		return m.seq.Load(), 0, true, nil
	}
	start := time.Now()
	inserts := uint64(0)
	for _, mu := range batch {
		if mu.Op == wal.OpStore {
			inserts++
		}
	}
	// Reserve the whole insert run in one step, before any lock: a
	// concurrent batch reserves from the same sequence, so a reservation
	// per insert would let foreign IDs interleave into the run.
	end := m.seq.Add(inserts)
	firstID = end - inserts
	var shardBuf [8]int
	touched := shardBuf[:0]
	next := firstID
	for i := range batch {
		mu := &batch[i]
		if mu.Op == wal.OpStore {
			mu.ID = next
			next++
		}
		if mu.P.e != nil {
			mu.P.e.ID = mu.ID
		}
		touched = append(touched, m.ShardIndex(mu.ID))
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	var tokBuf [8]Token
	toks := slices.Grow(tokBuf[:0], len(touched))[:len(touched)]

	for _, i := range touched {
		m.shards[i].mu.Lock()
	}
	unlock := func() {
		for _, i := range touched {
			m.shards[i].mu.Unlock()
		}
	}
	for _, mu := range batch {
		if mu.Op == wal.OpStore {
			continue
		}
		if _, exists := m.shardOf(mu.ID).slots[mu.ID]; !exists {
			unlock()
			m.seq.CompareAndSwap(end, firstID)
			m.Discard(batch)
			return 0, mu.ID, false, nil
		}
	}
	// Journal the whole batch before applying any of it: an append
	// failure then leaves the in-memory store untouched. A shard's last
	// record is the one its durability wait names.
	if m.journal != nil {
		for _, mu := range batch {
			si := m.ShardIndex(mu.ID)
			var g graph.Packed
			if mu.P.e != nil {
				g = mu.P.e.G
			}
			tok, jerr := m.journal.Append(si, mu.Op, mu.ID, g)
			if jerr != nil {
				unlock()
				m.Discard(batch)
				return 0, 0, false, jerr
			}
			k, _ := slices.BinarySearch(touched, si)
			toks[k] = tok
		}
	}
	var relBuf [4]branch.Coded
	released := relBuf[:0]
	for _, mu := range batch {
		if old, _ := m.shardOf(mu.ID).apply(mu.Op, mu.ID, mu.P); old != nil {
			released = append(released, old.Branches)
		}
	}
	for _, i := range touched {
		b := m.shards[i]
		b.epoch++
		m.maintain(b)
	}
	// One global bump for the whole batch, inside the locks: a cut that
	// read some touched shard before the batch and another after it sees
	// the epoch move and retries.
	m.gepoch.Add(1)
	unlock()
	// Release after the new state is published: compaction may run
	// inside Release.
	for _, c := range released {
		m.bdict.Release(c)
	}
	for _, mu := range batch {
		m.tele.Shards[m.ShardIndex(mu.ID)].Mutations.Add(1)
	}
	for _, tok := range toks {
		if tok.H == nil {
			continue
		}
		if err = m.journal.Wait(tok); err != nil {
			break
		}
	}
	m.tele.Mut[op].Observe(time.Since(start))
	return firstID, 0, true, err
}

// apply makes one mutation on b, whose write lock the caller holds: a
// store or update upserts p's entry under id, a delete removes id if
// present. It returns the entry it displaced, whose branches the caller
// releases once the locks drop, and whether b changed; the
// caller bumps the epochs.
func (b *bucket) apply(op wal.Op, id uint64, p Prepared) (old *db.Entry, changed bool) {
	slot, ok := b.slots[id]
	switch {
	case op == wal.OpDelete && !ok:
		return nil, false
	case op == wal.OpDelete:
		return b.removeAt(slot), true
	case ok:
		return b.replaceAt(slot, p.e, p.sig), true
	}
	b.insert(p.e, p.sig)
	return nil, true
}

// Add stores g under a fresh ID: a one-insert Commit. The database never
// calls it; it stays for the benchmark harness, which is versioned apart
// from this package.
func (m *Map) Add(g *graph.Graph) (uint64, error) {
	id, _, _, err := m.Commit(telemetry.OpAdd, []Mutation{{Op: wal.OpStore, P: m.Prepare(g)}})
	return id, err
}

// Delete removes id and reports whether it was stored: a one-delete
// Commit, kept for the benchmark harness like Add.
func (m *Map) Delete(id uint64) (bool, error) {
	_, _, ok, err := m.Commit(telemetry.OpDelete, []Mutation{{Op: wal.OpDelete, ID: id}})
	return ok, err
}

// Install bulk-inserts recovered entries without journaling them — they
// came from a snapshot segment, so they are durable already. Entries are
// placed by their existing IDs; the ID sequence is raised past the
// largest installed ID. Safe to call concurrently (parallel segment
// loads Install as they decode). An ID already present, from this call
// or an earlier one, is an error: the store is then corrupt and must be
// discarded, since entries before the repeat stay installed.
func (m *Map) Install(entries []*db.Entry) error {
	if len(entries) == 0 {
		return nil
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
		var err error
		b.mu.Lock()
		for _, e := range es {
			if _, dup := b.slots[e.ID]; dup {
				err = fmt.Errorf("shard: duplicate graph ID %d", e.ID)
				break
			}
			b.insert(e, index.SpanSig(e.Labels))
		}
		m.bump(b)
		b.mu.Unlock()
		if err != nil {
			return err
		}
	}
	m.EnsureSeq(maxID + 1)
	return nil
}

// Replay applies one recovered WAL record without journaling it again,
// through the same apply as Commit: stores and updates upsert by ID (an
// update's target may live in a snapshot segment or earlier in the same
// log), deletes remove if present. Safe to call concurrently for records
// of different shards; records of one shard must be replayed in log
// order, which per-shard logs give for free.
func (m *Map) Replay(op wal.Op, id uint64, g *graph.Graph) {
	var p Prepared
	if op != wal.OpDelete {
		p = m.Prepare(g)
		p.e.ID = id
		m.EnsureSeq(id + 1)
	}
	b := m.shardOf(id)
	b.mu.Lock()
	old, changed := b.apply(op, id, p)
	if changed {
		m.bump(b)
	}
	b.mu.Unlock()
	if old != nil {
		m.bdict.Release(old.Branches)
	}
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
// after it lands in the new log. Locks are taken one at a time: a Commit
// holds the lock of every shard it touches from journal to apply, so on
// each shard it is entirely before or entirely after the cut, and the
// per-shard snapshot+log pair stays exact even when a batch straddles
// the cut across shards. Returns the per-shard snapshots and the global
// epoch.
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
// ascends strictly. Post is the shard's branch postings, which read
// Sizes for their size window (index.Probes.Plan).
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

// tally merges the per-shard statistics. Label and size counts are
// refcounted per shard, so deletes subtract exactly; the merged
// distinct-label counts are unions, not sums.
func (m *Map) tally() *db.Tally {
	t := db.NewTally()
	for _, b := range m.shards {
		b.mu.RLock()
		t.Merge(&b.st)
		b.mu.RUnlock()
	}
	return &t
}

// Stats summarises the stored graphs in the shape of the paper's
// Table III.
func (m *Map) Stats() db.Stats { return m.tally().Stats() }

// DistinctSizes returns the ascending distinct vertex counts of stored
// graphs — the sizes a posterior table prebuilds rows for. The merge is
// memoised per epoch (search preparation calls this on every GBDA-family
// prepare); callers must not mutate the returned slice. The epoch is
// read before the merge, so a racing mutation at worst stores a
// conservative entry that the next call rebuilds.
func (m *Map) DistinctSizes() []int {
	epoch := m.gepoch.Load()
	if c := m.sizes.Load(); c != nil && c.epoch == epoch {
		return c.sizes
	}
	var out []int
	for _, b := range m.shards {
		b.mu.RLock()
		out = append(out, b.st.Sizes()...)
		b.mu.RUnlock()
	}
	slices.Sort(out)
	out = slices.Compact(out)
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
