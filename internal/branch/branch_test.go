package branch

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"gsim/internal/graph"
)

// paperG1 and paperG2 build the graphs of Figure 1 / Examples 1-2.
func paperG1(dict *graph.Labels) *graph.Graph {
	g := graph.New(3)
	g.Name = "G1"
	g.AddVertex(dict.Intern("A")) // v1
	g.AddVertex(dict.Intern("C")) // v2
	g.AddVertex(dict.Intern("B")) // v3
	g.MustAddEdge(0, 1, dict.Intern("y"))
	g.MustAddEdge(0, 2, dict.Intern("y"))
	g.MustAddEdge(1, 2, dict.Intern("z"))
	return g
}

func paperG2(dict *graph.Labels) *graph.Graph {
	g := graph.New(4)
	g.Name = "G2"
	g.AddVertex(dict.Intern("B"))         // u1
	g.AddVertex(dict.Intern("A"))         // u2
	g.AddVertex(dict.Intern("A"))         // u3
	g.AddVertex(dict.Intern("C"))         // u4
	g.MustAddEdge(0, 2, dict.Intern("x")) // u1-u3: x
	g.MustAddEdge(0, 3, dict.Intern("z")) // u1-u4: z
	g.MustAddEdge(1, 3, dict.Intern("y")) // u2-u4: y
	return g
}

func TestPaperExample2GBD(t *testing.T) {
	dict := graph.NewLabels()
	g1, g2 := paperG1(dict), paperG2(dict)
	// Example 2: the only isomorphic branch pair is B(v2)={C;y,z} ≅ B(u4),
	// so GBD = max(3,4) − 1 = 3.
	b1, b2 := MultisetOf(g1), MultisetOf(g2)
	if got := IntersectSize(b1, b2); got != 1 {
		t.Fatalf("|BG1 ∩ BG2| = %d, want 1", got)
	}
	if got := GBD(b1, b2); got != 3 {
		t.Fatalf("GBD = %d, want 3 (Example 2)", got)
	}
	if got := GBDGraphs(g1, g2); got != 3 {
		t.Fatalf("GBDGraphs = %d, want 3", got)
	}
}

func TestBranchKeyDecode(t *testing.T) {
	dict := graph.NewLabels()
	g := paperG1(dict)
	k := Of(g, 0) // B(v1) = {A; y, y}
	root, edges := k.Decode()
	if dict.Name(root) != "A" {
		t.Fatalf("root = %q, want A", dict.Name(root))
	}
	if len(edges) != 2 || dict.Name(edges[0]) != "y" || dict.Name(edges[1]) != "y" {
		t.Fatalf("edges = %v, want [y y]", edges)
	}
}

func TestBranchIsomorphismIsKeyEquality(t *testing.T) {
	dict := graph.NewLabels()
	// Two vertices in different graphs with equal label and equal sorted
	// incident edge labels must produce identical keys regardless of
	// neighbor identity or insertion order.
	a := graph.New(3)
	a.AddVertex(dict.Intern("A"))
	a.AddVertex(dict.Intern("B"))
	a.AddVertex(dict.Intern("C"))
	a.MustAddEdge(0, 1, dict.Intern("p"))
	a.MustAddEdge(0, 2, dict.Intern("q"))

	b := graph.New(4)
	b.AddVertex(dict.Intern("X"))
	b.AddVertex(dict.Intern("A"))
	b.AddVertex(dict.Intern("Y"))
	b.AddVertex(dict.Intern("Z"))
	b.MustAddEdge(1, 3, dict.Intern("q")) // reversed insertion order
	b.MustAddEdge(1, 2, dict.Intern("p"))

	if Of(a, 0) != Of(b, 1) {
		t.Fatal("isomorphic branches produced different keys")
	}
	if Of(a, 0) == Of(a, 1) {
		t.Fatal("non-isomorphic branches share a key")
	}
}

func TestMultisetSorted(t *testing.T) {
	dict := graph.NewLabels()
	ms := MultisetOf(paperG2(dict))
	for i := 1; i < len(ms); i++ {
		if ms[i-1] > ms[i] {
			t.Fatalf("multiset unsorted at %d", i)
		}
	}
}

func TestGBDIdenticalGraphsIsZero(t *testing.T) {
	dict := graph.NewLabels()
	g := paperG1(dict)
	if got := GBDGraphs(g, g.Clone()); got != 0 {
		t.Fatalf("GBD(G,G) = %d, want 0", got)
	}
}

func TestGBDEmptyGraphs(t *testing.T) {
	dict := graph.NewLabels()
	empty := graph.New(0)
	if got := GBDGraphs(empty, empty); got != 0 {
		t.Fatalf("GBD(∅,∅) = %d", got)
	}
	g := paperG1(dict)
	if got := GBDGraphs(empty, g); got != 3 {
		t.Fatalf("GBD(∅,G1) = %d, want |V1| = 3", got)
	}
}

// TestTheorem2GBDExtensionInvariant verifies GBD(G1,G2) = GBD(G1',G2') on the
// paper's running example and on random pairs (Theorem 2).
func TestTheorem2GBDExtensionInvariant(t *testing.T) {
	dict := graph.NewLabels()
	g1, g2 := paperG1(dict), paperG2(dict)
	e1, e2 := graph.ExtendPair(g1, g2)
	if got, want := GBDGraphs(e1, e2), GBDGraphs(g1, g2); got != want {
		t.Fatalf("GBD(G1',G2') = %d, want %d", got, want)
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomGraph(rng, dict, 2+rng.Intn(6))
		b := randomGraph(rng, dict, 2+rng.Intn(6))
		ea, eb := graph.ExtendPair(a, b)
		return GBDGraphs(ea, eb) == GBDGraphs(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func randomGraph(rng *rand.Rand, dict *graph.Labels, n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(dict.Intern(string(rune('A' + rng.Intn(3)))))
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, dict.Intern(string(rune('a'+rng.Intn(3)))))
		}
	}
	return g
}

func TestQuickGBDMetricProperties(t *testing.T) {
	dict := graph.NewLabels()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomGraph(rng, dict, 1+rng.Intn(10))
		b := randomGraph(rng, dict, 1+rng.Intn(10))
		ma, mb := MultisetOf(a), MultisetOf(b)
		d := GBD(ma, mb)
		if d != GBD(mb, ma) {
			return false // symmetry
		}
		if d < 0 {
			return false // non-negativity
		}
		maxN := a.NumVertices()
		if b.NumVertices() > maxN {
			maxN = b.NumVertices()
		}
		if d > maxN {
			return false // bounded by the larger vertex count
		}
		minD := a.NumVertices() - b.NumVertices()
		if minD < 0 {
			minD = -minD
		}
		return d >= minD // size difference forces at least that many misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSingleEditChangesGBDByAtMostTwo(t *testing.T) {
	// One edge relabel touches two branches, so GBD moves by at most 2;
	// one vertex relabel touches one branch, so GBD moves by at most 1.
	// This is the fact behind the paper's ϕ ≤ 2τ range (Section VI-C).
	dict := graph.NewLabels()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, dict, 3+rng.Intn(8))
		h := g.Clone()
		base := GBDGraphs(g, h)
		if base != 0 {
			return false
		}
		if es := h.Edges(); len(es) > 0 && rng.Intn(2) == 0 {
			e := es[rng.Intn(len(es))]
			if err := h.RelabelEdge(int(e.U), int(e.V), dict.Intern("edited")); err != nil {
				return false
			}
			return GBDGraphs(g, h) <= 2
		}
		h.RelabelVertex(rng.Intn(h.NumVertices()), dict.Intern("EDITED"))
		return GBDGraphs(g, h) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestGBDOf pins Definition 4 on precomputed sizes, in both size orders.
func TestGBDOf(t *testing.T) {
	cases := []struct{ la, lb, inter, want int }{
		{5, 3, 2, 3}, {3, 5, 2, 3}, {0, 0, 0, 0}, {7, 7, 7, 0},
	}
	for _, c := range cases {
		if got := GBDOf(c.la, c.lb, c.inter); got != c.want {
			t.Errorf("GBDOf(%d,%d,%d) = %d, want %d", c.la, c.lb, c.inter, got, c.want)
		}
	}
}

func TestLowerBoundGED(t *testing.T) {
	for _, tc := range []struct{ gbd, want int }{
		{0, 0}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {7, 4},
	} {
		if got := LowerBoundGED(tc.gbd); got != tc.want {
			t.Errorf("LowerBoundGED(%d) = %d, want %d", tc.gbd, got, tc.want)
		}
	}
}

// referenceOf and referenceMultisetOf are the original per-vertex
// encoders, one buffer and one Key copy per branch. MultisetOf must
// produce exactly their keys, in their order.
func referenceOf(g *graph.Graph, v int) Key {
	hs := g.Neighbors(v)
	labels := make([]graph.ID, len(hs))
	for i, h := range hs {
		labels[i] = h.Label
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	buf := make([]byte, 0, 4*(len(labels)+1))
	var tmp [binary.MaxVarintLen32]byte
	put := func(id graph.ID) {
		n := binary.PutUvarint(tmp[:], uint64(uint32(id)))
		buf = append(buf, tmp[:n]...)
	}
	put(g.VertexLabel(v))
	for _, l := range labels {
		put(l)
	}
	return Key(buf)
}

func referenceMultisetOf(g *graph.Graph) Multiset {
	ms := make(Multiset, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		ms[v] = referenceOf(g, v)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	return ms
}

// TestMultisetOfMatchesReference checks the arena-built multiset against
// the original encoder on random graphs with labels across every varint
// width, negative (ephemeral query) labels, a hub of degree > 64 and the
// empty graph.
func TestMultisetOfMatchesReference(t *testing.T) {
	labels := []graph.ID{0, 1, 127, 128, 300, 1 << 14, 1 << 21, 1<<31 - 1, -1, -2, -200, -1 << 31}
	rng := rand.New(rand.NewSource(7))
	label := func() graph.ID { return labels[rng.Intn(len(labels))] }
	check := func(name string, g *graph.Graph) {
		t.Helper()
		got, want := MultisetOf(g), referenceMultisetOf(g)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: MultisetOf = %q, want %q", name, got, want)
		}
		for v := 0; v < g.NumVertices(); v++ {
			if got, want := Of(g, v), referenceOf(g, v); got != want {
				t.Fatalf("%s: Of(%d) = %q, want %q", name, v, got, want)
			}
		}
	}
	check("empty", graph.New(0))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		g := graph.New(n)
		for v := 0; v < n; v++ {
			g.AddVertex(label())
		}
		for i := 0; i < 3*n; i++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v, label())
			}
		}
		check("random", g)
	}
	hub := graph.New(100)
	for v := 0; v < 100; v++ {
		hub.AddVertex(label())
	}
	for v := 1; v < 100; v++ {
		hub.MustAddEdge(0, v, label())
	}
	if hub.Degree(0) <= maxStackDegree {
		t.Fatalf("hub degree %d does not exceed the stack scratch", hub.Degree(0))
	}
	check("hub", hub)
}
