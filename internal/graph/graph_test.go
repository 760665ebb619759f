package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildTriangle(t testing.TB, dict *Labels) *Graph {
	t.Helper()
	g := New(3)
	g.Name = "tri"
	g.AddVertex(dict.Intern("A"))
	g.AddVertex(dict.Intern("B"))
	g.AddVertex(dict.Intern("C"))
	g.MustAddEdge(0, 1, dict.Intern("x"))
	g.MustAddEdge(1, 2, dict.Intern("y"))
	g.MustAddEdge(0, 2, dict.Intern("z"))
	return g
}

func TestLabelsInternRoundTrip(t *testing.T) {
	dict := NewLabels()
	a := dict.Intern("A")
	b := dict.Intern("B")
	if a == b {
		t.Fatalf("distinct labels share ID %d", a)
	}
	if got := dict.Intern("A"); got != a {
		t.Fatalf("re-intern of A = %d, want %d", got, a)
	}
	if dict.Name(a) != "A" || dict.Name(b) != "B" {
		t.Fatalf("Name round trip failed: %q %q", dict.Name(a), dict.Name(b))
	}
	if id, ok := dict.Lookup("A"); !ok || id != a {
		t.Fatalf("Lookup(A) = %d,%v", id, ok)
	}
	if _, ok := dict.Lookup("missing"); ok {
		t.Fatal("Lookup(missing) reported present")
	}
}

func TestLabelsEpsilonReserved(t *testing.T) {
	dict := NewLabels()
	if got := dict.Intern(EpsilonName); got != Epsilon {
		t.Fatalf("Intern(ε) = %d, want %d", got, Epsilon)
	}
	if dict.Name(Epsilon) != EpsilonName {
		t.Fatalf("Name(0) = %q", dict.Name(Epsilon))
	}
	for _, s := range dict.Names() {
		if s == EpsilonName {
			t.Fatal("Names() must exclude ε")
		}
	}
}

func TestLabelsConcurrentIntern(t *testing.T) {
	dict := NewLabels()
	done := make(chan ID)
	for i := 0; i < 16; i++ {
		go func() { done <- dict.Intern("shared") }()
	}
	first := <-done
	for i := 1; i < 16; i++ {
		if got := <-done; got != first {
			t.Fatalf("concurrent interning returned %d and %d", first, got)
		}
	}
}

func TestGraphBasicOps(t *testing.T) {
	dict := NewLabels()
	g := buildTriangle(t, dict)
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got |V|=%d |E|=%d", g.NumVertices(), g.NumEdges())
	}
	if got := g.Degree(1); got != 2 {
		t.Fatalf("Degree(1) = %d, want 2", got)
	}
	if l, ok := g.EdgeLabel(2, 0); !ok || dict.Name(l) != "z" {
		t.Fatalf("EdgeLabel(2,0) = %v,%v", l, ok)
	}
	if g.AvgDegree() != 2 {
		t.Fatalf("AvgDegree = %v, want 2", g.AvgDegree())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestGraphRejectsLoopsAndDuplicates(t *testing.T) {
	dict := NewLabels()
	g := buildTriangle(t, dict)
	if err := g.AddEdge(1, 1, dict.Intern("x")); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 1, dict.Intern("q")); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if err := g.AddEdge(0, 9, dict.Intern("q")); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edge count changed to %d after rejected inserts", g.NumEdges())
	}
}

func TestGraphEditOperations(t *testing.T) {
	dict := NewLabels()
	g := buildTriangle(t, dict)
	// RE
	if err := g.RelabelEdge(0, 1, dict.Intern("w")); err != nil {
		t.Fatal(err)
	}
	if l, _ := g.EdgeLabel(1, 0); dict.Name(l) != "w" {
		t.Fatalf("edge relabel not visible from both sides: %q", dict.Name(l))
	}
	// DE
	if err := g.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(2, 1) || g.NumEdges() != 2 {
		t.Fatal("edge removal failed")
	}
	if err := g.RemoveEdge(1, 2); err == nil {
		t.Fatal("double removal accepted")
	}
	// RV
	g.RelabelVertex(0, dict.Intern("Q"))
	if dict.Name(g.VertexLabel(0)) != "Q" {
		t.Fatal("vertex relabel failed")
	}
	// AV + AE
	v := g.AddVertex(dict.Intern("Z"))
	g.MustAddEdge(v, 0, dict.Intern("k"))
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after edits: %v", err)
	}
}

func TestGraphCloneIsDeep(t *testing.T) {
	dict := NewLabels()
	g := buildTriangle(t, dict)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.RelabelVertex(0, dict.Intern("MUT"))
	if err := c.RelabelEdge(0, 1, dict.Intern("mut")); err != nil {
		t.Fatal(err)
	}
	if g.Equal(c) {
		t.Fatal("mutating clone affected original comparison")
	}
	if dict.Name(g.VertexLabel(0)) != "A" {
		t.Fatal("clone shares vertex label storage with original")
	}
	if l, _ := g.EdgeLabel(0, 1); dict.Name(l) != "x" {
		t.Fatal("clone shares adjacency storage with original")
	}
}

func TestGraphEqualDetectsDifferences(t *testing.T) {
	dict := NewLabels()
	a := buildTriangle(t, dict)
	b := buildTriangle(t, dict)
	if !a.Equal(b) {
		t.Fatal("identical graphs not Equal")
	}
	if err := b.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) {
		t.Fatal("Equal ignored edge count")
	}
	b = buildTriangle(t, dict)
	if err := b.RelabelEdge(0, 1, dict.Intern("other")); err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) {
		t.Fatal("Equal ignored edge label")
	}
}

func TestConnected(t *testing.T) {
	dict := NewLabels()
	g := buildTriangle(t, dict)
	if !g.Connected() {
		t.Fatal("triangle reported disconnected")
	}
	g.AddVertex(dict.Intern("I"))
	if g.Connected() {
		t.Fatal("isolated vertex not detected")
	}
	empty := New(0)
	if !empty.Connected() {
		t.Fatal("empty graph should count as connected")
	}
}

func TestEdgesCanonical(t *testing.T) {
	dict := NewLabels()
	g := buildTriangle(t, dict)
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("Edges() returned %d, want 3", len(es))
	}
	for i, e := range es {
		if e.U >= e.V {
			t.Fatalf("edge %d not canonical: %+v", i, e)
		}
		if i > 0 && (es[i-1].U > e.U || (es[i-1].U == e.U && es[i-1].V > e.V)) {
			t.Fatalf("edges unsorted at %d", i)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	dict := NewLabels()
	g1 := buildTriangle(t, dict)
	g2 := New(2)
	g2.Name = "pair"
	g2.AddVertex(dict.Intern("A"))
	g2.AddVertex(dict.Intern("B"))
	g2.MustAddEdge(0, 1, dict.Intern("x"))

	var buf bytes.Buffer
	for _, g := range []*Graph{g1, g2} {
		if err := Write(&buf, g, dict); err != nil {
			t.Fatal(err)
		}
	}
	dict2 := NewLabels()
	back, err := ReadAll(&buf, dict2)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("parsed %d graphs, want 2", len(back))
	}
	if back[0].Name != "tri" || back[0].NumVertices() != 3 || back[0].NumEdges() != 3 {
		t.Fatalf("graph 0 mismatch: %v", back[0])
	}
	l, ok := back[1].EdgeLabel(0, 1)
	if !ok || dict2.Name(l) != "x" {
		t.Fatalf("edge label lost in round trip: %v %v", l, ok)
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	cases := []string{
		"v 0 A",                        // vertex before header
		"g a 1\nv 1 A",                 // out-of-order vertex index
		"g a 2\nv 0 A\nv 1 B\ne 0 0 x", // self-loop
		"g a 1\nv 0 A\ne 0 5 x",        // dangling edge
		"g a 1\nz nonsense",            // unknown record
		"g a",                          // short header
	}
	for _, src := range cases {
		if _, err := ReadAll(strings.NewReader(src), NewLabels()); err == nil {
			t.Errorf("malformed input accepted: %q", src)
		}
	}
}

func TestCodecSkipsCommentsAndBlanks(t *testing.T) {
	src := "# header comment\n\ng one 1\n  \nv 0 A\n# trailing\n"
	gs, err := ReadAll(strings.NewReader(src), NewLabels())
	if err != nil || len(gs) != 1 {
		t.Fatalf("got %v, %v", gs, err)
	}
}

func TestExtendIsComplete(t *testing.T) {
	dict := NewLabels()
	g := buildTriangle(t, dict)
	e := Extend(g, 2)
	n := e.NumVertices()
	if n != 5 {
		t.Fatalf("extended |V| = %d, want 5", n)
	}
	if e.NumEdges() != n*(n-1)/2 {
		t.Fatalf("extended graph not complete: %d edges", e.NumEdges())
	}
	// Original labels survive; added vertices are virtual.
	for v := 0; v < 3; v++ {
		if e.VertexLabel(v) != g.VertexLabel(v) {
			t.Fatalf("vertex %d label changed", v)
		}
	}
	for v := 3; v < 5; v++ {
		if e.VertexLabel(v) != Epsilon {
			t.Fatalf("vertex %d not virtual", v)
		}
	}
	// Pre-existing edges keep labels; new ones are ε.
	if l, _ := e.EdgeLabel(0, 1); dict.Name(l) != "x" {
		t.Fatal("existing edge label lost")
	}
	if l, _ := e.EdgeLabel(3, 4); l != Epsilon {
		t.Fatal("virtual edge not ε-labeled")
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExtendPairSizes(t *testing.T) {
	dict := NewLabels()
	small := New(2)
	small.AddVertex(dict.Intern("A"))
	small.AddVertex(dict.Intern("B"))
	big := buildTriangle(t, dict)
	e1, e2 := ExtendPair(big, small) // order must not matter
	if e1.NumVertices() != 3 || e2.NumVertices() != 3 {
		t.Fatalf("extended sizes %d, %d; want 3, 3", e1.NumVertices(), e2.NumVertices())
	}
}

func TestAlphabets(t *testing.T) {
	dict := NewLabels()
	g := buildTriangle(t, dict)
	lv, le := Alphabets(g)
	if lv != 3 || le != 3 {
		t.Fatalf("Alphabets = %d,%d; want 3,3", lv, le)
	}
	e := Extend(g, 1)
	lv, le = Alphabets(e)
	if lv != 3 || le != 3 {
		t.Fatalf("Alphabets must exclude ε: got %d,%d", lv, le)
	}
}

// randomGraph builds a random simple graph for property tests.
func randomGraph(rng *rand.Rand, dict *Labels, n, maxEdges, labels int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(dict.Intern(string(rune('A' + rng.Intn(labels)))))
	}
	for tries := 0; tries < maxEdges; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, dict.Intern(string(rune('a'+rng.Intn(labels)))))
	}
	return g
}

func TestQuickCodecRoundTripPreservesGraph(t *testing.T) {
	dict := NewLabels()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		g := randomGraph(rng, dict, n, 2*n, 4)
		g.Name = "q"
		var buf bytes.Buffer
		if err := Write(&buf, g, dict); err != nil {
			return false
		}
		back, err := ReadAll(&buf, dict) // same dict: IDs comparable
		if err != nil || len(back) != 1 {
			return false
		}
		return g.Equal(back[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickValidateAfterRandomEdits(t *testing.T) {
	dict := NewLabels()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, dict, 3+rng.Intn(10), 15, 3)
		for i := 0; i < 10; i++ {
			es := g.Edges()
			switch rng.Intn(3) {
			case 0:
				if len(es) > 0 {
					e := es[rng.Intn(len(es))]
					if err := g.RemoveEdge(int(e.U), int(e.V)); err != nil {
						return false
					}
				}
			case 1:
				u, v := rng.Intn(g.NumVertices()), rng.Intn(g.NumVertices())
				if u != v && !g.HasEdge(u, v) {
					g.MustAddEdge(u, v, dict.Intern("r"))
				}
			case 2:
				if len(es) > 0 {
					e := es[rng.Intn(len(es))]
					if err := g.RelabelEdge(int(e.U), int(e.V), dict.Intern("m")); err != nil {
						return false
					}
				}
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FuzzFromEdges holds the bulk constructor to incremental AddEdge on a
// fresh graph: it accepts exactly the edge lists the reference accepts,
// builds an Equal graph that passes Validate, and appending to any
// Neighbors window leaves the graph unchanged. The input is a vertex
// count and (u, v, label) byte triples; endpoints are signed so negative
// and out-of-range ones occur. Seeds live in testdata/fuzz.
func FuzzFromEdges(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		nv := int(n % 32)
		vlabels := make([]ID, nv)
		ref := New(nv)
		for v := range vlabels {
			vlabels[v] = ID(v % 3)
			ref.AddVertex(vlabels[v])
		}
		var edges []Edge
		var refErr error
		for i := 0; i+2 < len(data); i += 3 {
			u, v, l := int(int8(data[i])), int(int8(data[i+1])), ID(data[i+2]%4)
			edges = append(edges, Edge{U: int32(u), V: int32(v), Label: l})
			if refErr == nil {
				refErr = ref.AddEdge(u, v, l)
			}
		}
		g, err := FromEdges("", vlabels, edges)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("FromEdges error %v, AddEdge error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !g.Equal(ref) {
			t.Fatalf("FromEdges built %v, AddEdge %v", g.Edges(), ref.Edges())
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		want := g.Clone()
		for v := 0; v < nv; v++ {
			_ = append(g.Neighbors(v), Halfedge{To: 31, Label: 3})
		}
		if !g.Equal(want) {
			t.Fatal("appending to a Neighbors window changed the graph")
		}
	})
}
