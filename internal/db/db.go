// Package db implements the graph database D of the problem statement: a
// collection of labeled graphs sharing one label dictionary, with the
// auxiliary structures the paper assumes are "pre-computed and stored with
// graphs" (Section III) — most importantly the sorted branch multiset of
// every graph — plus persistence, deterministic pair sampling for the
// offline prior stage, and a parallel scan executor used by every searcher.
package db

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"

	"gsim/internal/branch"
	"gsim/internal/graph"
)

// Entry is one stored graph together with its precomputed branch index:
// its sorted branch IDs, interned through the collection's BranchDict and
// delta-coded (branch.Coded) — about a byte per vertex, decoded by the
// bounded merge as it walks on the scan hot path. Branches.Len() is the
// graph's vertex count.
//
// ID is the graph's stable identity: assigned once at insert time, in
// insertion order, and never reassigned while the store lives. In a flat
// Collection the ID always equals the slice index; the sharded store
// (internal/shard) keeps IDs stable across deletes — positions move under
// swap-remove, IDs never do — which is what makes them the handle of the
// public Delete/Update APIs and the deterministic result order of
// scatter-gather scans.
//
// G is the graph packed (graph.Packed): its name and binary body. Only the
// scorers that need the whole graph, and the readers that hand a stored
// graph out, unpack it. Labels is the graph's label span (see NewEntry):
// its sizes and sorted label multisets, encoded for the prefilter's size
// and label tiers and read by the store's columns and by StatsOf.
type Entry struct {
	ID       uint64
	G        graph.Packed
	Branches branch.Coded
	Labels   string
}

// NewEntry builds the Entry of graph g stored under id with its coded
// branch multiset, packing g and encoding its label span. It is the only
// way entries are made: an entry without a span would read as an empty
// graph.
func NewEntry(id uint64, g *graph.Graph, branches branch.Coded) *Entry {
	return &Entry{ID: id, G: graph.Pack(g), Branches: branches, Labels: labelSpan(g)}
}

// BuildEntry is NewEntry with g's branch multiset computed and interned
// into bdict: how the flat collection makes a graph ready to store (the
// sharded store prepares through shard.Map.Prepare).
func BuildEntry(bdict *BranchDict, id uint64, g *graph.Graph) *Entry {
	return NewEntry(id, g, bdict.InternMultiset(branch.MultisetOf(g)))
}

// Collection is an in-memory graph database. All graphs intern their labels
// through the collection's shared dictionary, so label IDs are comparable
// across graphs; branch keys intern likewise through a shared branch
// dictionary, so branch multisets compare as integers. Adding graphs is
// not safe for concurrent use; reading and scanning are.
type Collection struct {
	Name    string
	Dict    *graph.Labels
	entries []*Entry
	bdict   *BranchDict
}

// New returns an empty collection with fresh label and branch dictionaries.
func New(name string) *Collection {
	return &Collection{
		Name:  name,
		Dict:  graph.NewLabels(),
		bdict: NewBranchDict(),
	}
}

// BranchDict returns the shared branch dictionary — query preparation
// resolves against it (ResolveMultiset) without interning.
func (c *Collection) BranchDict() *BranchDict { return c.bdict }

// Add stores g, computing and interning its branch multiset. The graph
// must have been built against the collection's dictionary.
func (c *Collection) Add(g *graph.Graph) *Entry {
	e := BuildEntry(c.bdict, uint64(len(c.entries)), g)
	c.entries = append(c.entries, e)
	return e
}

// Len reports the number of stored graphs.
func (c *Collection) Len() int { return len(c.entries) }

// Entry returns the i-th stored entry.
func (c *Collection) Entry(i int) *Entry { return c.entries[i] }

// Graph returns the i-th stored graph, unpacked into a fresh copy the
// caller owns.
func (c *Collection) Graph(i int) *graph.Graph { return c.entries[i].G.Unpack() }

// Entries returns the stored entries as a point-in-time view: the caller
// sees exactly the graphs present at call time, and entries Added later
// never appear through the returned slice. Callers that interleave scans
// with Adds must serialise the Entries call itself against Add; after that
// the view is safe to read concurrently with further Adds. (The gsim layer
// reads a collection once, when FromCollection copies it into a store.)
func (c *Collection) Entries() []*Entry { return c.entries }

// Stats summarises the collection in the shape of the paper's Table III.
type Stats struct {
	Graphs    int     // |D|
	MaxV      int     // Vm
	MaxE      int     // Em
	AvgDegree float64 // d, averaged over graphs
	LV        int     // distinct vertex labels
	LE        int     // distinct edge labels
}

// Stats summarises the stored graphs in insertion order (StatsOf).
func (c *Collection) Stats() Stats { return StatsOf(c.entries) }

// StatsOf summarises the graphs of entries in one pass over their label
// spans, never reading the graphs themselves. The average degree is summed
// in the order given, so the same entries in the same order give
// bit-identical figures.
func StatsOf(entries []*Entry) Stats {
	s := Stats{Graphs: len(entries)}
	vLabels, eLabels := make(map[graph.ID]bool), make(map[graph.ID]bool)
	sumDeg := 0.0
	for _, e := range entries {
		nv, ne, off := SpanSizes(e.Labels)
		s.MaxV, s.MaxE = max(s.MaxV, nv), max(s.MaxE, ne)
		if nv > 0 {
			sumDeg += float64(2*ne) / float64(nv) // graph.AvgDegree
		}
		off = SpanRuns(e.Labels, off, nv, func(l graph.ID, _ int) { vLabels[l] = true })
		SpanRuns(e.Labels, off, ne, func(l graph.ID, _ int) { eLabels[l] = true })
	}
	delete(vLabels, graph.Epsilon)
	delete(eLabels, graph.Epsilon)
	s.LV, s.LE = len(vLabels), len(eLabels)
	if s.Graphs > 0 {
		s.AvgDegree = sumDeg / float64(s.Graphs)
	}
	return s
}

// String renders a Table III row.
func (s Stats) String() string {
	return fmt.Sprintf("|D|=%d Vm=%d Em=%d d=%.1f |LV|=%d |LE|=%d",
		s.Graphs, s.MaxV, s.MaxE, s.AvgDegree, s.LV, s.LE)
}

// SamplePairGBDs implements Steps 1.1–1.2 of the offline stage
// (Section VI-C): it draws n graph pairs uniformly (deterministically for a
// given seed) and returns the GBD of each, computed from the precomputed
// branch indexes. Pairs are drawn with replacement across pairs but with
// distinct members inside one pair.
func (c *Collection) SamplePairGBDs(n int, seed int64) []float64 {
	return SamplePairGBDsEntries(c.entries, n, seed)
}

// SamplePairGBDsEntries is the storage-layer-agnostic form of
// SamplePairGBDs: the flat collection passes its slice, the sharded store
// its ID-ordered snapshot, and both draw the same pairs for the same seed
// and entry order — which is what keeps prior fits reproducible across
// storage layouts.
func SamplePairGBDsEntries(entries []*Entry, n int, seed int64) []float64 {
	if len(entries) < 2 || n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	type pair struct{ a, b int32 }
	pairs := make([]pair, n)
	for i := range pairs {
		a := rng.Intn(len(entries))
		b := rng.Intn(len(entries) - 1)
		if b >= a {
			b++
		}
		pairs[i] = pair{int32(a), int32(b)}
	}
	out := make([]float64, n)
	parallel(n, func(i int) {
		p := pairs[i]
		var buf [stackIDs]uint32
		a := entries[p.a].Branches.AppendTo(buf[:0])
		out[i] = float64(branch.GBDIDs(a, entries[p.b].Branches))
	})
	return out
}

func parallel(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	per := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// Save writes the collection in .gsim text form, unpacking one graph at
// a time.
func (c *Collection) Save(w io.Writer) error {
	for _, e := range c.entries {
		if err := graph.Write(w, e.G.Unpack(), c.Dict); err != nil {
			return err
		}
	}
	return nil
}
