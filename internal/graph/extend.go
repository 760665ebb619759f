package graph

import "slices"

// Extend materialises the extended graph G{k} of Definition 5: k isolated
// virtual (ε-labeled) vertices are appended, then a virtual edge is inserted
// between every pair of non-adjacent vertices, so the result is a complete
// graph on |V|+k vertices.
//
// The paper proves (Theorems 1 and 2) that GED and GBD are invariant under
// this extension, so production code never calls Extend; it exists so tests
// can verify both theorems directly. Beware the quadratic blow-up: only call
// it on small graphs.
func Extend(g *Graph, k int) *Graph {
	n := g.NumVertices() + k
	vlabels := append(slices.Clone(g.vlabels), make([]ID, k)...) // ε = 0
	edges := make([]Edge, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			l, _ := g.EdgeLabel(u, v) // ε where absent
			edges = append(edges, Edge{U: int32(u), V: int32(v), Label: l})
		}
	}
	e, err := FromEdges(g.Name+"+ext", vlabels, edges)
	if err != nil {
		panic(err) // g is simple, so the complete graph over it is too
	}
	return e
}

// ExtendPair returns G1' = G1{|V2|-|V1|} and G2' = G2{0} for |V1| <= |V2|,
// the canonical extended pair of Section IV (swapping arguments if needed so
// the first result always extends the smaller graph).
func ExtendPair(g1, g2 *Graph) (*Graph, *Graph) {
	if g1.NumVertices() > g2.NumVertices() {
		g1, g2 = g2, g1
	}
	return Extend(g1, g2.NumVertices()-g1.NumVertices()), Extend(g2, 0)
}
