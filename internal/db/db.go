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
// G is the graph packed (graph.Packed): its name and binary body. Only the
// scorers that need the whole graph, and the readers that hand a stored
// graph out, unpack it. Labels is the graph's label span (see NewEntry):
// its sizes and sorted label multisets, encoded for the prefilter's size
// and label tiers and read by every column and statistic the store keeps.
type Entry struct {
	ID       uint64
	G        graph.Packed
	Branches branch.IDs
	Labels   string
}

// NewEntry builds the Entry of graph g stored under id with its interned
// branch multiset, packing g and encoding its label span. It is the only
// way entries are made: an entry without a span would read as an empty
// graph.
func NewEntry(id uint64, g *graph.Graph, branches branch.IDs) *Entry {
	return &Entry{ID: id, G: graph.Pack(g), Branches: branches, Labels: labelSpan(g)}
}

// BuildEntry is NewEntry with g's branch multiset computed and interned
// into bdict: the one way a graph is made ready to store.
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
	st      Tally
}

// New returns an empty collection with fresh label and branch dictionaries.
func New(name string) *Collection {
	return &Collection{
		Name:  name,
		Dict:  graph.NewLabels(),
		bdict: NewBranchDict(),
		st:    NewTally(),
	}
}

// BranchDict returns the shared branch dictionary — query preparation
// resolves against it (ResolveMultiset) without interning.
func (c *Collection) BranchDict() *BranchDict { return c.bdict }

// Add stores g, computing and interning its branch multiset and updating
// the collection statistics. The graph must have been built against the
// collection's dictionary.
func (c *Collection) Add(g *graph.Graph) *Entry {
	e := BuildEntry(c.bdict, uint64(len(c.entries)), g)
	c.entries = append(c.entries, e)
	c.st.Add(e.Labels)
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

// Stats returns the running statistics.
func (c *Collection) Stats() Stats { return c.st.Stats() }

// String renders a Table III row.
func (s Stats) String() string {
	return fmt.Sprintf("|D|=%d Vm=%d Em=%d d=%.1f |LV|=%d |LE|=%d",
		s.Graphs, s.MaxV, s.MaxE, s.AvgDegree, s.LV, s.LE)
}

// Tally is the running statistics of a changing set of graphs — the
// figures Stats reports — refcounted so Remove subtracts exactly what Add
// added. It counts each graph from its label span, so it never reads the
// graph itself. The maxima are the largest keys of the size histograms,
// so a removal needs no rescan. Not safe for concurrent use.
type Tally struct {
	n       int
	sumDeg  float64
	sizes   map[int]int      // vertex-count histogram
	edges   map[int]int      // edge-count histogram
	vLabels map[graph.ID]int // non-ε vertex label occurrences
	eLabels map[graph.ID]int // non-ε edge label occurrences
}

// NewTally returns an empty tally.
func NewTally() Tally {
	return Tally{
		sizes:   make(map[int]int),
		edges:   make(map[int]int),
		vLabels: make(map[graph.ID]int),
		eLabels: make(map[graph.ID]int),
	}
}

// Len reports the number of graphs counted.
func (t *Tally) Len() int { return t.n }

// Add counts the graph whose label span is span.
func (t *Tally) Add(span string) { t.count(span, 1) }

// Remove uncounts the graph whose label span is span, which must have
// been counted.
func (t *Tally) Remove(span string) { t.count(span, -1) }

func (t *Tally) count(span string, d int) {
	nv, ne, off := SpanSizes(span)
	t.n += d
	if nv > 0 {
		t.sumDeg += float64(d) * (float64(2*ne) / float64(nv)) // graph.AvgDegree
	}
	bump(t.sizes, nv, d)
	bump(t.edges, ne, d)
	off = SpanRuns(span, off, nv, func(l graph.ID, n int) {
		if l != graph.Epsilon {
			bump(t.vLabels, l, d*n)
		}
	})
	SpanRuns(span, off, ne, func(l graph.ID, n int) {
		if l != graph.Epsilon {
			bump(t.eLabels, l, d*n)
		}
	})
}

// Merge adds o's counts to t.
func (t *Tally) Merge(o *Tally) {
	t.n += o.n
	t.sumDeg += o.sumDeg
	for k, c := range o.sizes {
		bump(t.sizes, k, c)
	}
	for k, c := range o.edges {
		bump(t.edges, k, c)
	}
	for k, c := range o.vLabels {
		bump(t.vLabels, k, c)
	}
	for k, c := range o.eLabels {
		bump(t.eLabels, k, c)
	}
}

// Sizes returns the distinct vertex counts, ascending — the sizes a
// posterior table prebuilds rows for.
func (t *Tally) Sizes() []int {
	out := make([]int, 0, len(t.sizes))
	for v := range t.sizes {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Stats summarises the counted graphs.
func (t *Tally) Stats() Stats {
	s := Stats{Graphs: t.n, LV: len(t.vLabels), LE: len(t.eLabels)}
	for v := range t.sizes {
		s.MaxV = max(s.MaxV, v)
	}
	for e := range t.edges {
		s.MaxE = max(s.MaxE, e)
	}
	if t.n > 0 {
		s.AvgDegree = t.sumDeg / float64(t.n)
	}
	return s
}

// bump adds d to m[k], deleting the key when its count reaches zero.
func bump[K comparable](m map[K]int, k K, d int) {
	if m[k] += d; m[k] == 0 {
		delete(m, k)
	}
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

// Load reads graphs in .gsim text form into a fresh collection, recomputing
// branch indexes.
func Load(name string, r io.Reader) (*Collection, error) {
	c := New(name)
	if err := graph.ReadEach(r, c.Dict, func(g *graph.Graph) error {
		c.Add(g)
		return nil
	}); err != nil {
		return nil, err
	}
	return c, nil
}
