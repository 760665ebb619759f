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
	"sort"
	"sync"

	"gsim/internal/branch"
	"gsim/internal/graph"
)

// Entry is one stored graph together with its precomputed branch index in
// interned form: sorted uint32 branch IDs resolved through the
// collection's BranchDict — 4 bytes per vertex, merged by integer
// comparison on the scan hot path.
//
// ID is the graph's stable identity: assigned once at insert time, in
// insertion order, and never reassigned while the store lives. In a flat
// Collection the ID always equals the slice index; the sharded store
// (internal/shard) keeps IDs stable across deletes — positions move under
// swap-remove, IDs never do — which is what makes them the handle of the
// public Delete/Update APIs and the deterministic result order of
// scatter-gather scans.
//
// Labels is the graph's label span (see NewEntry): its sizes and sorted
// label multisets, encoded for the prefilter's size and label tiers.
type Entry struct {
	ID       uint64
	G        *graph.Graph
	Branches branch.IDs
	Labels   string
}

// NewEntry builds the Entry of graph g stored under id with its interned
// branch multiset, encoding its label span. It is the only way entries
// are made: an entry without a span would read as an empty graph.
func NewEntry(id uint64, g *graph.Graph, branches branch.IDs) *Entry {
	return &Entry{ID: id, G: g, Branches: branches, Labels: labelSpan(g)}
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

	vLabels map[graph.ID]struct{} // distinct non-ε vertex labels seen
	eLabels map[graph.ID]struct{} // distinct non-ε edge labels seen
	sizes   map[int]int           // vertex-count histogram of stored graphs
	maxV    int
	maxE    int
	sumDeg  float64
}

// New returns an empty collection with fresh label and branch dictionaries.
func New(name string) *Collection {
	return &Collection{
		Name:    name,
		Dict:    graph.NewLabels(),
		bdict:   NewBranchDict(),
		vLabels: make(map[graph.ID]struct{}),
		eLabels: make(map[graph.ID]struct{}),
		sizes:   make(map[int]int),
	}
}

// BranchDict returns the shared branch dictionary — query preparation
// resolves against it (ResolveMultiset) without interning.
func (c *Collection) BranchDict() *BranchDict { return c.bdict }

// DistinctSizes returns the distinct vertex counts of stored graphs,
// ascending — the sizes a posterior table prebuilds rows for.
func (c *Collection) DistinctSizes() []int {
	out := make([]int, 0, len(c.sizes))
	for v := range c.sizes {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Add stores g, computing and interning its branch multiset and updating
// the collection statistics. The graph must have been built against the
// collection's dictionary.
func (c *Collection) Add(g *graph.Graph) *Entry {
	e := NewEntry(uint64(len(c.entries)), g, c.bdict.InternMultiset(branch.MultisetOf(g)))
	c.entries = append(c.entries, e)
	c.sizes[g.NumVertices()]++
	if g.NumVertices() > c.maxV {
		c.maxV = g.NumVertices()
	}
	if g.NumEdges() > c.maxE {
		c.maxE = g.NumEdges()
	}
	c.sumDeg += g.AvgDegree()
	for v := 0; v < g.NumVertices(); v++ {
		if l := g.VertexLabel(v); l != graph.Epsilon {
			c.vLabels[l] = struct{}{}
		}
	}
	for _, ed := range g.Edges() {
		if ed.Label != graph.Epsilon {
			c.eLabels[ed.Label] = struct{}{}
		}
	}
	return e
}

// Len reports the number of stored graphs.
func (c *Collection) Len() int { return len(c.entries) }

// Entry returns the i-th stored entry.
func (c *Collection) Entry(i int) *Entry { return c.entries[i] }

// Graph returns the i-th stored graph.
func (c *Collection) Graph(i int) *graph.Graph { return c.entries[i].G }

// Entries returns the stored entries as a point-in-time view: the caller
// sees exactly the graphs present at call time, and entries Added later
// never appear through the returned slice. Callers that interleave scans
// with Adds must serialise the Entries call itself against Add (the gsim
// layer does so with its database lock); after that the view is safe to
// read concurrently with further Adds.
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

// Stats returns the running statistics in O(1).
func (c *Collection) Stats() Stats {
	s := Stats{
		Graphs: len(c.entries),
		MaxV:   c.maxV,
		MaxE:   c.maxE,
		LV:     len(c.vLabels),
		LE:     len(c.eLabels),
	}
	if len(c.entries) > 0 {
		s.AvgDegree = c.sumDeg / float64(len(c.entries))
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
		out[i] = float64(branch.GBDIDs(entries[p.a].Branches, entries[p.b].Branches))
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

// Save writes the collection in .gsim text form.
func (c *Collection) Save(w io.Writer) error {
	gs := make([]*graph.Graph, len(c.entries))
	for i, e := range c.entries {
		gs[i] = e.G
	}
	return graph.WriteAll(w, gs, c.Dict)
}

// Load reads graphs in .gsim text form into a fresh collection, recomputing
// branch indexes.
func Load(name string, r io.Reader) (*Collection, error) {
	c := New(name)
	gs, err := graph.ReadAll(r, c.Dict)
	if err != nil {
		return nil, err
	}
	for _, g := range gs {
		c.Add(g)
	}
	return c, nil
}
