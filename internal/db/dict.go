package db

import (
	"slices"
	"strings"
	"sync"

	"gsim/internal/branch"
)

// EphemeralBranchBase is the first ID of the per-query overlay range:
// branch keys a query graph exhibits that the shared dictionary has never
// seen resolve to IDs at or above this base (ResolveMultiset), while
// stored entries only ever carry interned IDs below it — so an unknown
// query branch can never collide with a stored one, which is exactly the
// Key semantics (a branch the database has never seen matches nothing).
const EphemeralBranchBase = uint32(1) << 31

// compactMinDead is the dead-ID floor below which Release never triggers
// an automatic compaction pass: scanning the whole key map to drop a
// handful of strings is not worth the lock hold. Above the floor,
// compaction runs once dead keys outnumber live ones (see maybeCompact).
const compactMinDead = 1024

// BranchDict interns canonical branch Keys to dense uint32 IDs shared by
// every entry of one collection, so branch isomorphism (Definition 3) is
// integer equality and per-entry multisets shrink to 4 bytes per vertex.
// It is safe for concurrent use; query-time resolution takes only a read
// lock.
//
// Entries are refcounted per occurrence: InternMultiset counts every
// vertex of a stored graph, and Release (the delete/update path) counts
// them back down. A key whose count reaches zero is dead — no live entry
// references its ID — and a compaction pass (automatic past a threshold,
// or explicit via Compact) removes dead keys from the map, reclaiming the
// key bytes and map slots that dominate the dictionary's footprint.
//
// Dead IDs are retired, never reused. An in-flight scan resolves its query
// against the live dictionary while scanning an older snapshot whose
// entries may include just-deleted graphs; reusing a dead ID for a new key
// would let that query spuriously match a deleted entry's old branch. The
// cost of retirement is one refcount slot (4 bytes) per dead ID — the ID
// space is 2³¹ wide, so numbering is never the binding constraint — and
// re-interning a key that died earlier simply assigns it a fresh ID, which
// is correct because no live multiset still carries the old one.
type BranchDict struct {
	mu   sync.RWMutex
	ids  map[branch.Key]uint32
	refs []uint32 // occurrence counts, indexed by ID; never shrinks
	next uint32   // next fresh ID; monotonic (retired IDs are not reused)
	dead int      // keys still in the map whose refcount is zero

	compactions uint64 // completed compaction passes
	retired     int    // dead IDs removed from the map by compaction
}

// NewBranchDict returns an empty dictionary.
func NewBranchDict() *BranchDict {
	return &BranchDict{ids: make(map[branch.Key]uint32)}
}

// Len reports the number of interned branch keys currently in the map
// (live keys plus dead ones not yet compacted away).
func (d *BranchDict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.ids)
}

// DictStats is a point-in-time snapshot of the dictionary's lifecycle
// counters, surfaced by the serving layer's /v1/stats.
type DictStats struct {
	// Live is the number of keys referenced by at least one stored entry.
	Live int
	// Dead is the number of keys awaiting compaction (refcount zero).
	Dead int
	// Retired is the cumulative number of dead IDs reclaimed by
	// compaction passes.
	Retired int
	// Compactions counts completed compaction passes.
	Compactions uint64
	// Universe is the exclusive upper bound of ever-assigned branch IDs.
	// Monotonic (retired IDs are not reused).
	Universe int
}

// Stats snapshots the lifecycle counters.
func (d *BranchDict) Stats() DictStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return DictStats{
		Live:        len(d.ids) - d.dead,
		Dead:        d.dead,
		Retired:     d.retired,
		Compactions: d.compactions,
		Universe:    int(d.next),
	}
}

// Universe reports the exclusive upper bound of assigned branch IDs —
// every stored multiset's IDs lie below it (ephemeral query IDs live at
// EphemeralBranchBase and above).
func (d *BranchDict) Universe() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int(d.next)
}

// Lookup returns the ID for k without interning.
func (d *BranchDict) Lookup(k branch.Key) (uint32, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.ids[k]
	return id, ok
}

// InternMultiset resolves a Key multiset into sorted interned IDs,
// assigning fresh IDs to unseen keys and incrementing each key's refcount
// by its occurrence count — the store path, called once per Add. The
// interned universe is capped at EphemeralBranchBase entries so stored IDs
// and ephemeral query IDs can never meet; 2³¹ distinct branch shapes is
// far beyond any real collection.
func (d *BranchDict) InternMultiset(ms branch.Multiset) branch.IDs {
	ids, _ := d.InternMultisetMark(ms)
	return ids
}

// InternMultisetMark is InternMultiset that also returns the mark
// Unintern takes to undo it: the universe just before the intern, read
// under the same lock.
func (d *BranchDict) InternMultisetMark(ms branch.Multiset) (branch.IDs, uint32) {
	out := make(branch.IDs, len(ms))
	d.mu.Lock()
	mark := d.next
	for i, k := range ms {
		id, ok := d.ids[k]
		if !ok {
			if d.next >= EphemeralBranchBase {
				d.mu.Unlock()
				panic("db: branch dictionary exhausted (2^31 distinct branches)")
			}
			id = d.next
			d.next++
			// A multiset's keys share one string (branch.MultisetOf);
			// storing k itself would keep the whole graph's keys alive.
			d.ids[branch.Key(strings.Clone(string(k)))] = id
			d.refs = append(d.refs, 0)
		}
		if d.refs[id] == 0 && ok {
			// A dead key coming back to life before compaction got to it.
			d.dead--
		}
		d.refs[id]++
		out[i] = id
	}
	d.mu.Unlock()
	slices.Sort(out)
	return out, mark
}

// Release decrements refcounts for a deleted (or replaced) entry's
// interned multiset — the inverse of InternMultiset. Keys whose count
// reaches zero become dead; once dead keys pass the compaction threshold
// a pass runs inline, dropping them from the map. Ephemeral overlay IDs
// (≥ EphemeralBranchBase) are ignored: they were never interned.
func (d *BranchDict) Release(ids branch.IDs) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, id := range ids {
		if id >= EphemeralBranchBase || int(id) >= len(d.refs) || d.refs[id] == 0 {
			continue // ephemeral or already dead: nothing to release
		}
		d.refs[id]--
		if d.refs[id] == 0 {
			d.dead++
		}
	}
	d.maybeCompact()
}

// Unintern undoes InternMultiset for multisets that were never stored
// (a write that failed after preparing its entries). It releases sets as
// Release does, except that a key created at or above mark — the least
// InternMultisetMark returned for those interns — whose count returns
// to zero leaves the map at once instead of waiting, dead, for
// compaction. With no concurrent writer, Stats' Live and Dead are then
// what they were before the interns.
func (d *BranchDict) Unintern(mark uint32, sets []branch.IDs) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var fresh map[uint32]bool
	for _, ids := range sets {
		for _, id := range ids {
			if id >= EphemeralBranchBase || int(id) >= len(d.refs) || d.refs[id] == 0 {
				continue
			}
			d.refs[id]--
			switch {
			case d.refs[id] > 0:
			case id >= mark:
				if fresh == nil {
					fresh = make(map[uint32]bool)
				}
				fresh[id] = true
			default:
				d.dead++
			}
		}
	}
	if len(fresh) == 0 {
		return
	}
	for k, id := range d.ids {
		if fresh[id] {
			delete(d.ids, k)
		}
	}
	d.retired += len(fresh)
}

// maybeCompact runs a compaction pass when dead keys both exceed the
// absolute floor and outnumber live ones — the point where half the map
// is paying for graphs that no longer exist. The caller must hold d.mu.
func (d *BranchDict) maybeCompact() {
	if d.dead >= compactMinDead && d.dead >= len(d.ids)-d.dead {
		d.compactLocked()
	}
}

// Compact forces a compaction pass regardless of thresholds, returning
// the number of dead keys reclaimed. Live interned multisets are never
// disturbed: compaction only deletes map entries whose refcount is zero,
// and the IDs they held are retired rather than reused.
func (d *BranchDict) Compact() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.compactLocked()
}

// compactLocked deletes every dead key from the map. The caller must
// hold d.mu (write).
func (d *BranchDict) compactLocked() int {
	if d.dead == 0 {
		return 0
	}
	n := 0
	for k, id := range d.ids {
		if d.refs[id] == 0 {
			delete(d.ids, k)
			n++
		}
	}
	d.dead -= n
	d.retired += n
	d.compactions++
	return n
}

// ResolveMultiset resolves a Key multiset into sorted IDs without growing
// the dictionary — the query path. Keys the dictionary knows map to their
// shared IDs; unknown keys get per-call ephemeral IDs from the overlay
// range, consistent within the call (two equal unknown branches share one
// ID, preserving multiset counts) and guaranteed to match no stored entry.
// A long-running server answering arbitrary queries therefore never grows
// the shared dictionary.
func (d *BranchDict) ResolveMultiset(ms branch.Multiset) branch.IDs {
	out := make(branch.IDs, len(ms))
	var eph map[branch.Key]uint32
	d.mu.RLock()
	for i, k := range ms {
		if id, ok := d.ids[k]; ok {
			out[i] = id
			continue
		}
		if eph == nil {
			eph = make(map[branch.Key]uint32)
		}
		id, ok := eph[k]
		if !ok {
			id = EphemeralBranchBase + uint32(len(eph))
			eph[k] = id
		}
		out[i] = id
	}
	d.mu.RUnlock()
	slices.Sort(out)
	return out
}
