// Package lsap implements the linear-sum-assignment baselines of the paper's
// evaluation (Section VII / VIII-B):
//
//   - the exact LSAP method of Riesen & Bunke [11], solved by an O(n³)
//     Hungarian (Jonker–Volgenant style) algorithm over a branch-edit cost
//     matrix whose optimum lower-bounds GED (hence 100% recall), and
//   - Greedy-Sort-GED of Riesen, Ferrer & Bunke [12], which solves the same
//     LSAP greedily over globally sorted costs in O(n² log n²) and converts
//     the assignment into an edit path whose cost estimates GED (no bound).
//
// Both baselines materialise an (n1+n2)×(n1+n2) cost matrix — the quadratic
// memory that, as the paper observes, prevents them from scaling past a few
// tens of thousands of vertices.
package lsap

import (
	"math"
	"sort"

	"gsim/internal/ged"
	"gsim/internal/graph"
)

// Solve finds a minimum-cost perfect assignment of rows to columns of the
// square matrix cost, returning the column chosen for each row and the total
// cost. It is the Jonker–Volgenant variant of the Hungarian algorithm and
// runs in O(n³).
func Solve(cost [][]float64) ([]int, float64) {
	n := len(cost)
	if n == 0 {
		return nil, 0
	}
	const inf = math.MaxFloat64
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1)   // p[j] = row matched to column j (1-based), 0 = free
	way := make([]int, n+1) // way[j] = previous column on the alternating path
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0, delta, j1 := p[j0], inf, -1
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	assign := make([]int, n)
	var total float64
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			assign[p[j]-1] = j - 1
			total += cost[p[j]-1][j-1]
		}
	}
	return assign, total
}

// GreedySort approximates the LSAP by sorting all n² entries ascending and
// accepting each entry whose row and column are still free — the
// O(n² log n²) strategy of Greedy-Sort-GED [12]. The returned cost is an
// upper bound on the LSAP optimum.
func GreedySort(cost [][]float64) ([]int, float64) {
	n := len(cost)
	if n == 0 {
		return nil, 0
	}
	type entry struct {
		c    float64
		r, j int32
	}
	entries := make([]entry, 0, n*n)
	for r := range cost {
		for j, c := range cost[r] {
			entries = append(entries, entry{c, int32(r), int32(j)})
		}
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].c < entries[b].c })
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	colUsed := make([]bool, n)
	var total float64
	remaining := n
	for _, e := range entries {
		if assign[e.r] != -1 || colUsed[e.j] {
			continue
		}
		assign[e.r] = int(e.j)
		colUsed[e.j] = true
		total += e.c
		if remaining--; remaining == 0 {
			break
		}
	}
	return assign, total
}

// CostModel selects the per-vertex cost function used to build the matrix.
type CostModel int

const (
	// BranchHalf is the lower-bounding model of Zheng et al. [15]: label
	// mismatch plus HALF the incident-edge-multiset distance. Each edge
	// operation touches at most two branches, so halving keeps the LSAP
	// optimum ≤ GED.
	BranchHalf CostModel = iota
	// FullCost charges the whole edge-multiset distance. Its assignment
	// makes a better starting point for edit-path estimation (the
	// Greedy-Sort-GED usage) but its LSAP optimum is not a GED bound.
	FullCost
)

// CostMatrix builds the (n1+n2)×(n1+n2) assignment matrix of [11]:
//
//	[ substitution | deletion ]
//	[ insertion    | zero     ]
//
// Row i < n1 is vertex u_i of g1; column j < n2 is vertex v_j of g2. The
// deletion block is diagonal (u_i can only be deleted "into" its own ε
// column), as is the insertion block.
func CostMatrix(g1, g2 *graph.Graph, model CostModel) [][]float64 {
	n1, n2 := g1.NumVertices(), g2.NumVertices()
	nl1 := neighborLabels(g1)
	nl2 := neighborLabels(g2)
	scale := 1.0
	if model == BranchHalf {
		scale = 0.5
	}
	const inf = math.MaxFloat64 / 4
	n := n1 + n2
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n1; i++ {
		for j := 0; j < n2; j++ {
			var c float64
			if g1.VertexLabel(i) != g2.VertexLabel(j) {
				c = 1
			}
			m[i][j] = c + scale*float64(multisetDistance(nl1[i], nl2[j]))
		}
		for j := 0; j < n1; j++ {
			if i == j {
				m[i][n2+j] = 1 + scale*float64(len(nl1[i])) // DV + incident DEs
			} else {
				m[i][n2+j] = inf
			}
		}
	}
	for i := 0; i < n2; i++ {
		for j := 0; j < n2; j++ {
			if i == j {
				m[n1+i][j] = 1 + scale*float64(len(nl2[i])) // AV + incident AEs
			} else {
				m[n1+i][j] = inf
			}
		}
		// ε → ε block stays zero.
	}
	return m
}

// neighborLabels returns, per vertex, the sorted multiset of incident edge
// labels (the N(v) of Definition 2).
func neighborLabels(g *graph.Graph) [][]graph.ID {
	out := make([][]graph.ID, g.NumVertices())
	for v := range out {
		hs := g.Neighbors(v)
		ls := make([]graph.ID, len(hs))
		for i, h := range hs {
			ls[i] = h.Label
		}
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		out[v] = ls
	}
	return out
}

func multisetDistance(a, b []graph.ID) int {
	i, j, common := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			common++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	m := len(a)
	if len(b) > m {
		m = len(b)
	}
	return m - common
}

// LowerBound returns the LSAP optimum over the BranchHalf matrix: a real-
// valued lower bound on GED(g1, g2). This is the filter the paper's "LSAP"
// competitor applies (always 100% recall).
func LowerBound(g1, g2 *graph.Graph) float64 {
	_, total := Solve(CostMatrix(g1, g2, BranchHalf))
	return total
}

// assignmentToMapping converts a solved (n1+n2)-assignment into the φ form
// used by ged.AssignmentCost: φ[u] = matched g2 vertex or -1.
func assignmentToMapping(assign []int, n1, n2 int) []int {
	phi := make([]int, n1)
	for u := 0; u < n1; u++ {
		if assign[u] < n2 {
			phi[u] = assign[u]
		} else {
			phi[u] = -1
		}
	}
	return phi
}

// GreedyEstimateGED is Greedy-Sort-GED [12]: the greedy-sort assignment over
// the FullCost matrix, priced as an edit path. Also an upper bound on GED,
// typically looser than EstimateGED but cheaper to compute.
func GreedyEstimateGED(g1, g2 *graph.Graph) int {
	assign, _ := GreedySort(CostMatrix(g1, g2, FullCost))
	return ged.AssignmentCost(g1, g2, assignmentToMapping(assign, g1.NumVertices(), g2.NumVertices()))
}
