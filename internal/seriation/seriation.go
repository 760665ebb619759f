// Package seriation implements the Graph Seriation baseline of
// Robles-Kelly & Hancock [13] as used in the paper's evaluation: graphs are
// converted into one-dimensional vertex sequences ordered by the leading
// eigenvector of the adjacency matrix, and GED is then estimated by a
// probabilistic alignment of the two seriated sequences.
//
// Deviation note: the original work scores alignments
// with an EM-trained edit lattice; we use a deterministic dynamic-program
// alignment whose local costs blend label and degree evidence. The cost
// profile the paper measures — an O(n²)-ish spectral step followed by a
// quadratic alignment, no error bound on the estimate — is preserved.
package seriation

import (
	"math"
	"sort"

	"gsim/internal/graph"
)

// PowerIterOptions tunes LeadingEigenvector. Zero values select defaults.
type PowerIterOptions struct {
	MaxIter int     // default 200
	Tol     float64 // convergence on vector change, default 1e-10
}

// LeadingEigenvector computes the Perron (leading) eigenvector of A + I by
// matrix-free power iteration over the adjacency lists, returning the
// eigenvector (unit L2 norm, non-negative) and the corresponding eigenvalue
// of A itself. The +I shift guarantees convergence on bipartite graphs,
// whose unshifted spectra contain ±λmax pairs.
func LeadingEigenvector(g *graph.Graph, opt PowerIterOptions) ([]float64, float64) {
	n := g.NumVertices()
	if n == 0 {
		return nil, 0
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 200
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-10
	}
	x := make([]float64, n)
	y := make([]float64, n)
	for v := range x {
		x[v] = 1 + float64(g.Degree(v)) // degree-informed start
	}
	normalize(x)
	var lambda float64
	for iter := 0; iter < opt.MaxIter; iter++ {
		// y = (A + I) x
		for v := 0; v < n; v++ {
			s := x[v]
			for _, h := range g.Neighbors(v) {
				s += x[h.To]
			}
			y[v] = s
		}
		lambda = norm(y)
		if lambda == 0 {
			break // no edges and zero vector cannot happen after +I, defensive
		}
		var diff float64
		for v := range y {
			y[v] /= lambda
			d := y[v] - x[v]
			diff += d * d
		}
		x, y = y, x
		if math.Sqrt(diff) < opt.Tol {
			break
		}
	}
	return x, lambda - 1
}

func norm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func normalize(x []float64) {
	n := norm(x)
	if n == 0 {
		return
	}
	for i := range x {
		x[i] /= n
	}
}

// Order returns the seriation permutation: vertex indices sorted by
// descending leading-eigenvector coordinate, with degree and then index as
// deterministic tie-breaks. order[0] is the spectrally most central vertex.
func Order(g *graph.Graph) []int {
	vec, _ := LeadingEigenvector(g, PowerIterOptions{})
	order := make([]int, g.NumVertices())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		va, vb := vec[order[a]], vec[order[b]]
		if va != vb {
			return va > vb
		}
		da, db := g.Degree(order[a]), g.Degree(order[b])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	return order
}

// EstimateGED aligns the seriated vertex sequences of g1 and g2 with a
// Levenshtein-style dynamic program and returns the accumulated alignment
// cost as the seriation estimate of GED. Local costs: substituting vertices
// charges the label mismatch plus half the degree difference (a proxy for
// the edge operations the mismatch implies); inserting or deleting a vertex
// charges 1 plus half its degree (the vertex plus its incident edges).
// The estimate carries no bound with respect to the true GED, matching the
// behaviour of the original method in the paper's experiments.
func EstimateGED(g1, g2 *graph.Graph) float64 {
	o1, o2 := Order(g1), Order(g2)
	n, m := len(o1), len(o2)
	// Two-row DP keeps memory linear; the quadratic time remains.
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := 1; j <= m; j++ {
		prev[j] = prev[j-1] + delCost(g2, o2[j-1])
	}
	for i := 1; i <= n; i++ {
		cur[0] = prev[0] + delCost(g1, o1[i-1])
		for j := 1; j <= m; j++ {
			sub := prev[j-1] + subCost(g1, o1[i-1], g2, o2[j-1])
			del := prev[j] + delCost(g1, o1[i-1])
			ins := cur[j-1] + delCost(g2, o2[j-1])
			cur[j] = math.Min(sub, math.Min(del, ins))
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

func subCost(g1 *graph.Graph, u int, g2 *graph.Graph, v int) float64 {
	var c float64
	if g1.VertexLabel(u) != g2.VertexLabel(v) {
		c = 1
	}
	dd := g1.Degree(u) - g2.Degree(v)
	if dd < 0 {
		dd = -dd
	}
	return c + float64(dd)/2
}

func delCost(g *graph.Graph, v int) float64 {
	return 1 + float64(g.Degree(v))/2
}

// EstimateGEDInt rounds the alignment cost to the integer GED domain used by
// the search layer's threshold comparison.
func EstimateGEDInt(g1, g2 *graph.Graph) int {
	return int(math.Round(EstimateGED(g1, g2)))
}
