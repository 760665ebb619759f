// Package qcache implements the serving layer's versioned result cache: a
// bounded LRU keyed by canonical query fingerprint, versioned by the
// database epoch (gsim.Database.Epoch).
//
// Nothing serves from it: only benchmark/ladder.go imports it, to time
// Get, until the benchmark's ladder drops that rung.
//
// The epoch is the whole invalidation protocol. Every Get and Put carries
// the epoch its caller observed; the cache retains entries for exactly one
// epoch at a time. When an operation arrives with a newer epoch the cache
// flushes wholesale — every cached result was computed against a database
// state that no longer exists — and adopts the new epoch. An operation
// carrying an older epoch than the cache (a search that started before a
// concurrent mutation committed) is refused: its result may describe
// either side of the mutation, so it must not be served afterwards. The
// protocol needs no clocks and no per-entry bookkeeping, and it can never
// serve a result computed before a mutation to a caller that arrived
// after it — the staleness bug result caches usually grow.
//
// This is the "cross-batch result caching" of the roadmap: a query
// repeated across batches (or across HTTP requests) pays one scan per
// database epoch, not one per arrival.
package qcache

import (
	"container/list"
	"sync"
)

// Stats is a point-in-time counter snapshot, exposed by the server's
// /v1/stats endpoint.
type Stats struct {
	// Len and Cap describe occupancy: entries resident vs the bound.
	Len, Cap int
	// Epoch is the database version the resident entries were computed at.
	Epoch uint64
	// Hits and Misses count Get outcomes (an epoch flush counts the
	// triggering Get as a miss).
	Hits, Misses uint64
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64
	// Invalidations counts entries dropped by epoch flushes — the
	// observable cost of database mutations to the cache.
	Invalidations uint64
}

// Cache is a bounded, epoch-versioned LRU over opaque result payloads.
// The zero value is not usable; construct with New. All methods are safe
// for concurrent use.
type Cache struct {
	mu            sync.Mutex
	cap           int
	epoch         uint64
	ll            *list.List // front = most recently used
	items         map[string]*list.Element
	hits          uint64
	misses        uint64
	evictions     uint64
	invalidations uint64
}

// entry is one resident result.
type entry struct {
	key string
	val []byte
}

// New returns a cache bounded to capacity entries. A capacity ≤ 0
// disables caching: every Get misses and every Put is dropped, so callers
// need no "is caching on" branch.
func New(capacity int) *Cache {
	return &Cache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// sync adopts epoch, flushing every resident entry when it moved forward.
// It reports whether the caller's epoch is current (false = the caller
// observed an older database version than the cache has seen).
// The caller must hold c.mu.
func (c *Cache) sync(epoch uint64) bool {
	if epoch == c.epoch {
		return true
	}
	if epoch < c.epoch {
		return false
	}
	c.invalidations += uint64(len(c.items))
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.epoch = epoch
	return true
}

// Get returns the payload cached under key at the given epoch. A Get
// carrying a newer epoch than the cache flushes it first (and therefore
// misses); a Get carrying an older epoch misses without disturbing the
// resident entries.
func (c *Cache) Get(epoch uint64, key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.sync(epoch) {
		c.misses++
		return nil, false
	}
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*entry).val, true
}

// Put stores val under key at the given epoch, evicting the
// least-recently-used entry beyond capacity. A Put carrying an older
// epoch than the cache is dropped: the result was computed against a
// database state that has since mutated.
func (c *Cache) Put(epoch uint64, key string, val []byte) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.sync(epoch) {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
	for len(c.items) > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*entry).key)
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Len:           len(c.items),
		Cap:           c.cap,
		Epoch:         c.epoch,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
}
