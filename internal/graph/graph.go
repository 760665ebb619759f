package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Halfedge is one directed half of an undirected edge as stored in a
// vertex's run: the opposite endpoint and the interned edge label.
type Halfedge struct {
	To    int32
	Label ID
}

// Graph is a simple labeled undirected graph (Section II of the paper):
// no self-loops, at most one edge per vertex pair, and interned labels on
// every vertex and edge. Vertices are dense indices 0..NumVertices()-1.
//
// Directed or weighted graphs are represented, as the paper prescribes, by
// folding direction or weight into the edge label string before interning.
//
// The adjacency is stored in compressed sparse rows: vertex v's half-edges
// are half[off[v]:off[v+1]], sorted by (To, Label), and each edge {u,v}
// appears once in u's run and once in v's. A graph is therefore the struct
// and three slices whatever its size. FromEdges builds one in a single
// pass; the in-place edits (AddVertex, AddEdge, RemoveEdge, RelabelEdge,
// RelabelVertex) cost O(|V|+|E|) and are meant for small graphs.
//
// The zero value is an empty graph ready for use.
type Graph struct {
	// Name identifies the graph inside a database (e.g. "aids-0042").
	Name string

	vlabels []ID       // vertex labels, index = vertex
	off     []int32    // |V|+1 run offsets into half; empty while |V| = 0
	half    []Halfedge // every vertex's run, each sorted by (To, Label)
}

// New returns an empty graph with capacity hints for n vertices.
func New(n int) *Graph {
	return &Graph{
		vlabels: make([]ID, 0, n),
		off:     make([]int32, 0, n+1),
	}
}

// CheckEdge reports why the edge {u,v} cannot join the graph called name
// with n vertices, or nil: a self-loop, an endpoint out of range, or a
// duplicate when dup says {u,v} is already present. These are the errors
// AddEdge and FromEdges return.
func CheckEdge(name string, n, u, v int, dup bool) error {
	switch {
	case u == v:
		return fmt.Errorf("graph %q: self-loop on vertex %d", name, u)
	case u < 0 || v < 0 || u >= n || v >= n:
		return fmt.Errorf("graph %q: edge (%d,%d) out of range [0,%d)", name, u, v, n)
	case dup:
		return fmt.Errorf("graph %q: duplicate edge (%d,%d)", name, u, v)
	}
	return nil
}

// FromEdges builds the graph called name with vertex i labeled vlabels[i]
// and the given edges, in either orientation. It takes ownership of
// vlabels and keeps no reference to edges. It counts degrees, takes
// prefix sums, fills every run and sorts it, and returns AddEdge's errors:
// a self-loop, an endpoint out of range or a duplicate edge.
func FromEdges(name string, vlabels []ID, edges []Edge) (*Graph, error) {
	g, err := startRuns(name, vlabels, len(edges))
	if err != nil {
		return nil, err
	}
	for _, e := range edges {
		if err := CheckEdge(name, len(vlabels), int(e.U), int(e.V), false); err != nil {
			return nil, err
		}
		g.count(e.U, e.V)
	}
	g.sumRuns()
	for _, e := range edges {
		g.place(e.U, e.V, e.Label)
	}
	if err := g.seal(); err != nil {
		return nil, err
	}
	return g, nil
}

// startRuns returns the graph called name with the given vertex labels
// and room for ne edges: the first step of the bulk constructors' one
// procedure, count every edge, sumRuns, place every edge, seal. The
// offsets start one slot long: count makes off[v+2] v's degree, sumRuns
// makes off[v+1] the start of v's run, and place advances it to the run's
// end, which is where v+1's run starts, so seal only drops the spare slot.
// Edges placed in ascending (u, v) order, as a body and Edges list them,
// leave every run sorted.
func startRuns(name string, vlabels []ID, ne int) (*Graph, error) {
	n := len(vlabels)
	if n > math.MaxInt32 || ne > math.MaxInt32/2 {
		return nil, fmt.Errorf("graph %q: %d vertices and %d edges exceed the int32 layout", name, n, ne)
	}
	g := &Graph{Name: name, vlabels: vlabels}
	if n > 0 {
		g.off = make([]int32, n+2)
		g.half = make([]Halfedge, 2*ne)
	}
	return g, nil
}

// count notes the checked edge {u,v} in both endpoints' degrees.
func (g *Graph) count(u, v int32) {
	g.off[u+2]++
	g.off[v+2]++
}

// sumRuns turns the degree counts into run starts.
func (g *Graph) sumRuns() {
	for v := 2; v < len(g.off); v++ {
		g.off[v] += g.off[v-1]
	}
}

// place puts a counted edge's two half-edges at the fronts of their runs'
// unfilled parts.
func (g *Graph) place(u, v int32, label ID) {
	g.half[g.off[u+1]] = Halfedge{To: v, Label: label}
	g.off[u+1]++
	g.half[g.off[v+1]] = Halfedge{To: u, Label: label}
	g.off[v+1]++
}

// seal drops the spare offset, sorts every run and reports a duplicate
// edge.
func (g *Graph) seal() error {
	n := len(g.vlabels)
	if n == 0 {
		return nil
	}
	g.off = g.off[:n+1]
	for u := 0; u < n; u++ {
		run := g.Neighbors(u)
		slices.SortFunc(run, cmpHalf)
		for i := 1; i < len(run); i++ {
			if run[i].To == run[i-1].To {
				return CheckEdge(g.Name, n, u, int(run[i].To), true)
			}
		}
	}
	return nil
}

// cmpHalf orders a run by (To, Label).
func cmpHalf(a, b Halfedge) int {
	if a.To != b.To {
		return cmp.Compare(a.To, b.To)
	}
	return cmp.Compare(a.Label, b.Label)
}

// NumVertices reports |V|.
func (g *Graph) NumVertices() int { return len(g.vlabels) }

// NumEdges reports |E|.
func (g *Graph) NumEdges() int { return len(g.half) / 2 }

// AddVertex appends an isolated vertex with the given interned label and
// returns its index.
func (g *Graph) AddVertex(label ID) int {
	if len(g.off) == 0 {
		g.off = append(g.off, 0)
	}
	g.vlabels = append(g.vlabels, label)
	g.off = append(g.off, int32(len(g.half)))
	return len(g.vlabels) - 1
}

// VertexLabel returns the interned label of vertex v.
func (g *Graph) VertexLabel(v int) ID { return g.vlabels[v] }

// RelabelVertex sets vertex v's label (edit operation RV of Definition 1).
func (g *Graph) RelabelVertex(v int, label ID) { g.vlabels[v] = label }

// Degree reports the number of edges incident to v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors returns v's half-edges, sorted by (To, Label). The window is
// owned by the graph, must not be modified, and is valid until the
// graph's next edit; its capacity ends with the run, so appending to it
// copies instead of overwriting the next vertex's run.
func (g *Graph) Neighbors(v int) []Halfedge {
	lo, hi := g.off[v], g.off[v+1]
	return g.half[lo:hi:hi]
}

// find returns the index in half of u's half-edge towards v, or -1.
func (g *Graph) find(u, v int) int {
	if u < 0 || u >= len(g.vlabels) || v < 0 || v >= len(g.vlabels) {
		return -1
	}
	run := g.Neighbors(u)
	i := sort.Search(len(run), func(i int) bool { return run[i].To >= int32(v) })
	if i < len(run) && run[i].To == int32(v) {
		return int(g.off[u]) + i
	}
	return -1
}

// AddEdge inserts the undirected edge {u,v} with the given label (edit
// operation AE). It reports an error for self-loops, out-of-range endpoints,
// or duplicate edges, keeping the graph simple.
func (g *Graph) AddEdge(u, v int, label ID) error {
	if err := CheckEdge(g.Name, len(g.vlabels), u, v, g.HasEdge(u, v)); err != nil {
		return err
	}
	g.insertHalf(u, Halfedge{To: int32(v), Label: label})
	g.insertHalf(v, Halfedge{To: int32(u), Label: label})
	return nil
}

// MustAddEdge is AddEdge for construction code where the inputs are known
// valid; it panics on error.
func (g *Graph) MustAddEdge(u, v int, label ID) {
	if err := g.AddEdge(u, v, label); err != nil {
		panic(err)
	}
}

// insertHalf inserts h into u's run at its sorted position and shifts the
// later runs up by one.
func (g *Graph) insertHalf(u int, h Halfedge) {
	run := g.Neighbors(u)
	i, _ := slices.BinarySearchFunc(run, h, cmpHalf)
	g.half = slices.Insert(g.half, int(g.off[u])+i, h)
	for w := u + 1; w < len(g.off); w++ {
		g.off[w]++
	}
}

// HasEdge reports whether edge {u,v} exists.
func (g *Graph) HasEdge(u, v int) bool { return g.find(u, v) >= 0 }

// EdgeLabel returns the label of edge {u,v} and whether the edge exists.
func (g *Graph) EdgeLabel(u, v int) (ID, bool) {
	if i := g.find(u, v); i >= 0 {
		return g.half[i].Label, true
	}
	return 0, false
}

// RelabelEdge sets the label of the existing edge {u,v} (edit operation
// RE). A run holds one half-edge per neighbour, so it stays sorted.
func (g *Graph) RelabelEdge(u, v int, label ID) error {
	i, j := g.find(u, v), g.find(v, u)
	if i < 0 || j < 0 {
		return fmt.Errorf("graph %q: relabel of missing edge (%d,%d)", g.Name, u, v)
	}
	g.half[i].Label = label
	g.half[j].Label = label
	return nil
}

// RemoveEdge deletes edge {u,v} (edit operation DE).
func (g *Graph) RemoveEdge(u, v int) error {
	if g.find(u, v) < 0 {
		return fmt.Errorf("graph %q: removal of missing edge (%d,%d)", g.Name, u, v)
	}
	g.removeHalf(u, v)
	g.removeHalf(v, u)
	return nil
}

// removeHalf deletes u's half-edge towards v and shifts the later runs
// down by one.
func (g *Graph) removeHalf(u, v int) {
	i := g.find(u, v)
	g.half = slices.Delete(g.half, i, i+1)
	for w := u + 1; w < len(g.off); w++ {
		g.off[w]--
	}
}

// Edge is an undirected labeled edge. Edges returns it in canonical
// (U < V) form; FromEdges takes either orientation.
type Edge struct {
	U, V  int32
	Label ID
}

// Edges returns all edges in canonical form, sorted by (U, V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := range g.vlabels {
		for _, h := range g.Neighbors(u) {
			if int(h.To) > u {
				out = append(out, Edge{U: int32(u), V: h.To, Label: h.Label})
			}
		}
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	return &Graph{
		Name:    g.Name,
		vlabels: slices.Clone(g.vlabels),
		off:     slices.Clone(g.off),
		half:    slices.Clone(g.half),
	}
}

// Equal reports whether g and h are identical labeled graphs under the
// identity vertex mapping (same vertex count, same labels, same edges).
// This is structural equality, not isomorphism.
func (g *Graph) Equal(h *Graph) bool {
	return slices.Equal(g.vlabels, h.vlabels) && slices.Equal(g.half, h.half) &&
		(len(g.vlabels) == 0 || slices.Equal(g.off, h.off))
}

// Validate checks the internal invariants: run offsets that tile the
// half-edges, symmetric sorted runs, no loops, no duplicates. FromEdges
// and the edits keep them; tests and fuzzers check that they do.
func (g *Graph) Validate() error {
	n := len(g.vlabels)
	if n == 0 {
		if len(g.off) != 0 || len(g.half) != 0 {
			return fmt.Errorf("graph %q: half-edges without vertices", g.Name)
		}
		return nil
	}
	if len(g.off) != n+1 || g.off[0] != 0 || int(g.off[n]) != len(g.half) {
		return fmt.Errorf("graph %q: %d run offsets do not tile %d half-edges over %d vertices", g.Name, len(g.off), len(g.half), n)
	}
	for u := 0; u < n; u++ {
		if g.off[u+1] < g.off[u] {
			return fmt.Errorf("graph %q: run of vertex %d ends before it starts", g.Name, u)
		}
		prev := Halfedge{To: -1}
		for _, h := range g.Neighbors(u) {
			if int(h.To) == u {
				return fmt.Errorf("graph %q: self-loop at %d", g.Name, u)
			}
			if int(h.To) < 0 || int(h.To) >= n {
				return fmt.Errorf("graph %q: dangling half-edge %d->%d", g.Name, u, h.To)
			}
			if h.To == prev.To {
				return fmt.Errorf("graph %q: duplicate edge (%d,%d)", g.Name, u, h.To)
			}
			if h.To < prev.To {
				return fmt.Errorf("graph %q: unsorted adjacency at %d", g.Name, u)
			}
			back, ok := g.EdgeLabel(int(h.To), u)
			if !ok || back != h.Label {
				return fmt.Errorf("graph %q: asymmetric edge (%d,%d)", g.Name, u, h.To)
			}
			prev = h
		}
	}
	return nil
}

// AvgDegree reports the average vertex degree 2|E|/|V| (the d of Eq. 2 and
// Theorem 3), or 0 for the empty graph.
func (g *Graph) AvgDegree() float64 {
	if len(g.vlabels) == 0 {
		return 0
	}
	return float64(len(g.half)) / float64(len(g.vlabels))
}

// Connected reports whether g is connected (or empty).
func (g *Graph) Connected() bool {
	n := g.NumVertices()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.Neighbors(u) {
			if !seen[h.To] {
				seen[h.To] = true
				count++
				stack = append(stack, int(h.To))
			}
		}
	}
	return count == n
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph %q (|V|=%d |E|=%d)", g.Name, g.NumVertices(), g.NumEdges())
}
