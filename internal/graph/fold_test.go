package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFoldDirectedDistinguishesDirection(t *testing.T) {
	dict := NewLabels()
	mk := func(u, v int) *Graph {
		g := New(2)
		g.AddVertex(dict.Intern("A"))
		g.AddVertex(dict.Intern("B"))
		if err := AddDirectedEdge(g, dict, u, v, "r"); err != nil {
			t.Fatal(err)
		}
		return g
	}
	fwd := mk(0, 1)
	bwd := mk(1, 0)
	lf, _ := fwd.EdgeLabel(0, 1)
	lb, _ := bwd.EdgeLabel(0, 1)
	if lf == lb {
		t.Fatal("opposite arcs fold to the same label")
	}
	if dict.Name(lf) != "r|>" || dict.Name(lb) != "r|<" {
		t.Fatalf("labels %q, %q", dict.Name(lf), dict.Name(lb))
	}
}

func TestFoldDirectedMergesBidirectional(t *testing.T) {
	dict := NewLabels()
	g := New(2)
	g.AddVertex(dict.Intern("A"))
	g.AddVertex(dict.Intern("B"))
	if err := AddDirectedEdge(g, dict, 0, 1, "r"); err != nil {
		t.Fatal(err)
	}
	if err := AddDirectedEdge(g, dict, 1, 0, "r"); err != nil {
		t.Fatal(err)
	}
	l, _ := g.EdgeLabel(0, 1)
	if dict.Name(l) != "r|=" {
		t.Fatalf("bidirectional pair folded to %q", dict.Name(l))
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edge count %d", g.NumEdges())
	}
	// Duplicate arc and mismatched base conflict.
	if err := AddDirectedEdge(g, dict, 0, 1, "r"); err == nil {
		t.Fatal("duplicate arc accepted")
	}
	g2 := New(2)
	g2.AddVertex(dict.Intern("A"))
	g2.AddVertex(dict.Intern("B"))
	_ = AddDirectedEdge(g2, dict, 0, 1, "r")
	if err := AddDirectedEdge(g2, dict, 1, 0, "other"); err == nil {
		t.Fatal("conflicting base label accepted")
	}
	if err := AddDirectedEdge(g2, dict, 1, 1, "r"); err == nil {
		t.Fatal("directed self-loop accepted")
	}
}

func TestWeightBucketsFold(t *testing.T) {
	dict := NewLabels()
	wb := WeightBuckets{Min: 0, Max: 10, Buckets: 5}
	cases := []struct {
		w    float64
		want string
	}{
		{-3, "w0"}, {0, "w0"}, {1.9, "w0"}, {2.1, "w1"},
		{5, "w2"}, {9.99, "w4"}, {10, "w4"}, {42, "w4"},
	}
	for _, tc := range cases {
		if got := dict.Name(wb.Fold(dict, tc.w)); got != tc.want {
			t.Errorf("Fold(%v) = %q, want %q", tc.w, got, tc.want)
		}
	}
}

func TestWeightBucketsDefaultsAndDegenerate(t *testing.T) {
	dict := NewLabels()
	wb := WeightBuckets{} // zero range, default buckets
	if got := dict.Name(wb.Fold(dict, 0.5)); got == "" {
		t.Fatal("empty label")
	}
	// Degenerate Min == Max must not divide by zero.
	wb = WeightBuckets{Min: 5, Max: 5, Buckets: 4}
	_ = wb.Fold(dict, 5)
}

func TestQuickWeightFoldMonotone(t *testing.T) {
	dict := NewLabels()
	wb := WeightBuckets{Min: 0, Max: 100, Buckets: 10}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := rng.Float64() * 100
		b := rng.Float64() * 100
		if a > b {
			a, b = b, a
		}
		la := dict.Name(wb.Fold(dict, a))
		lb := dict.Name(wb.Fold(dict, b))
		// Buckets are monotone: a ≤ b implies bucket(a) ≤ bucket(b).
		return la <= lb || len(la) < len(lb) // "w2" < "w10" lexically; length guards
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAddWeightedEdge(t *testing.T) {
	dict := NewLabels()
	g := New(2)
	g.AddVertex(dict.Intern("A"))
	g.AddVertex(dict.Intern("B"))
	wb := WeightBuckets{Min: 0, Max: 1, Buckets: 4}
	if err := AddWeightedEdge(g, dict, wb, 0, 1, 0.7); err != nil {
		t.Fatal(err)
	}
	l, ok := g.EdgeLabel(0, 1)
	if !ok || dict.Name(l) != "w2" {
		t.Fatalf("weighted edge label %q", dict.Name(l))
	}
}

// AddDirectedEdge inserts the arc u→v into g with direction folded into the
// label, merging with an existing opposite arc of the same base label into
// the "=" (bidirectional) form. It is the directed-graph entry point
// promised by Section II.
func AddDirectedEdge(g *Graph, dict *Labels, u, v int, base string) error {
	if u == v {
		return fmt.Errorf("graph %q: directed self-loop on %d", g.Name, u)
	}
	existing, present := g.EdgeLabel(u, v)
	l, err := DirectedLabel(dict, u, v, base, existing, present)
	switch {
	case err != nil:
		return fmt.Errorf("graph %q: %w", g.Name, err)
	case present:
		return g.RelabelEdge(u, v, l)
	}
	return g.AddEdge(u, v, l)
}

// AddWeightedEdge inserts {u,v} with the weight folded to a bucket label.
func AddWeightedEdge(g *Graph, dict *Labels, wb WeightBuckets, u, v int, weight float64) error {
	return g.AddEdge(u, v, wb.Fold(dict, weight))
}
