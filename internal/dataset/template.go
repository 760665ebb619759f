// Package dataset synthesises every workload of the paper's evaluation
// (Section VII-A, Appendix I). Two families are produced:
//
//   - Syn-1/Syn-2-style collections built exactly per Appendix I: random
//     connected templates (preferential attachment for scale-free Syn-1,
//     uniform for Syn-2) with a modification center whose incident edge
//     slots are randomly edited, so the GED between any two variants of one
//     template is known in polynomial time.
//
//   - Profile-matched stand-ins for the paper's real data sets (AIDS,
//     Fingerprint, GREC, AASD), which are not redistributable offline: the
//     same cluster construction, dimensioned to reproduce each data set's
//     Table III statistics (graph count, size range, average degree,
//     alphabet sizes, scale-free degree shape). See DESIGN.md §4 for why
//     this substitution preserves the evaluated behaviour.
//
// Ground truth: within a cluster the exact GED is the number of differing
// modification slots; across clusters the construction guarantees
// GED > GuardTau by keeping template vertex-label multisets far apart
// (a multiset label difference lower-bounds GED). Both claims are validated
// against the exact A* of internal/ged in the package tests.
package dataset

import (
	"fmt"
	"math/rand"

	"gsim/internal/graph"
)

// templateSpec controls one random template graph.
type templateSpec struct {
	n          int     // vertices
	extraPerV  float64 // extra edges per vertex beyond the connecting tree
	scaleFree  bool    // preferential attachment vs uniform endpoints
	vlabelPool []graph.ID
	vlabelW    []float64 // cumulative weights over vlabelPool
	elabelPool []graph.ID
}

// draft is a template under construction: its vertex labels and edge
// list, with the degrees and vertex-pair set the generators query. It
// becomes a graph once, through graph.FromEdges, so building a template of
// 100,000 vertices stays linear in its edges.
type draft struct {
	vlabels []graph.ID
	edges   []graph.Edge // canonical: U < V
	deg     []int
	pairs   map[uint64]struct{}
}

func pairKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func (d *draft) has(u, v int) bool {
	_, ok := d.pairs[pairKey(u, v)]
	return ok
}

// add inserts the edge {u,v}, which must be new and no self-loop.
func (d *draft) add(u, v int, l graph.ID) {
	if u > v {
		u, v = v, u
	}
	d.edges = append(d.edges, graph.Edge{U: int32(u), V: int32(v), Label: l})
	d.pairs[pairKey(u, v)] = struct{}{}
	d.deg[u]++
	d.deg[v]++
}

// graph builds the draft.
func (d *draft) graph() *graph.Graph {
	g, err := graph.FromEdges("", d.vlabels, d.edges)
	if err != nil {
		panic(err) // add keeps the draft simple
	}
	return g
}

// genTemplate builds a connected random graph per Appendix I: every vertex
// i ≥ 1 first connects to some j < i (degree-proportional for scale-free
// graphs, uniform otherwise), then extra edges are added the same way.
func genTemplate(rng *rand.Rand, spec templateSpec) *draft {
	d := &draft{
		vlabels: make([]graph.ID, spec.n),
		deg:     make([]int, spec.n),
		pairs:   make(map[uint64]struct{}),
	}
	for i := range d.vlabels {
		d.vlabels[i] = pickWeighted(rng, spec.vlabelPool, spec.vlabelW)
	}
	if spec.n == 1 {
		return d
	}
	// degree+1 weights so isolated vertices stay reachable targets.
	pick := func(limit int) int {
		if !spec.scaleFree {
			return rng.Intn(limit)
		}
		total := 0
		for j := 0; j < limit; j++ {
			total += d.deg[j] + 1
		}
		r := rng.Intn(total)
		for j := 0; j < limit; j++ {
			r -= d.deg[j] + 1
			if r < 0 {
				return j
			}
		}
		return limit - 1
	}
	for i := 1; i < spec.n; i++ {
		j := pick(i)
		d.add(i, j, spec.elabelPool[rng.Intn(len(spec.elabelPool))])
	}
	extra := int(spec.extraPerV * float64(spec.n))
	for tries, added := 0, 0; added < extra && tries < 20*extra+100; tries++ {
		u := rng.Intn(spec.n)
		v := pick(spec.n)
		if u == v || d.has(u, v) {
			continue
		}
		d.add(u, v, spec.elabelPool[rng.Intn(len(spec.elabelPool))])
		added++
	}
	return d
}

func pickWeighted(rng *rand.Rand, pool []graph.ID, cumWeights []float64) graph.ID {
	if len(cumWeights) == 0 {
		return pool[rng.Intn(len(pool))]
	}
	r := rng.Float64() * cumWeights[len(cumWeights)-1]
	for i, c := range cumWeights {
		if r < c {
			return pool[i]
		}
	}
	return pool[len(pool)-1]
}

// signature computes the modification-invariant signature of vertex u: its
// own label plus, per hop k ≤ depth, the sorted (vertex label, edge label)
// pairs reachable in exactly k steps — with every edge incident to the
// modification center excluded, so editing the center's slots can never
// change a neighbour's signature. This is the signature of Appendix I with
// the exclusion refinement described in DESIGN.md.
func signature(g *graph.Graph, u, center, depth int) string {
	type frontierItem struct {
		v        int32
		edgeized int64 // (vertexLabel << 32) | edgeLabel of the arriving step
	}
	buf := make([]byte, 0, 64)
	buf = appendInt(buf, int64(g.VertexLabel(u)))
	frontier := []int32{int32(u)}
	visited := map[int32]bool{int32(u): true}
	for k := 0; k < depth; k++ {
		var items []int64
		var next []int32
		for _, v := range frontier {
			for _, h := range g.Neighbors(int(v)) {
				if int(v) == center || int(h.To) == center {
					continue // exclude center-incident edges
				}
				if visited[h.To] {
					continue
				}
				visited[h.To] = true
				next = append(next, h.To)
				items = append(items, int64(g.VertexLabel(int(h.To)))<<32|int64(h.Label))
			}
		}
		sortInt64(items)
		buf = append(buf, '|')
		for _, it := range items {
			buf = appendInt(buf, it)
		}
		frontier = next
	}
	return string(buf)
}

func appendInt(b []byte, v int64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(v>>(8*i)))
	}
	return append(b, ';')
}

func sortInt64(a []int64) {
	// Insertion sort: frontiers are tiny for the sparse graphs involved.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// findModificationCenter locates a vertex of degree ≥ minSlots whose
// neighbours carry pairwise-distinct signatures. Candidates are examined in
// decreasing degree order (hubs first). It returns -1 when no vertex
// qualifies, in which case the caller regenerates the template, exactly as
// Appendix I prescribes.
func findModificationCenter(g *graph.Graph, minSlots, sigDepth int) int {
	n := g.NumVertices()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Partial selection: we only need the few highest-degree vertices.
	for i := 0; i < n && i < 8; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if g.Degree(order[j]) > g.Degree(order[best]) {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
		c := order[i]
		if g.Degree(c) < minSlots {
			return -1 // degrees only get smaller from here
		}
		if distinctNeighborSignatures(g, c, sigDepth) {
			return c
		}
	}
	return -1
}

func distinctNeighborSignatures(g *graph.Graph, center, depth int) bool {
	seen := make(map[string]bool)
	for _, h := range g.Neighbors(center) {
		sig := signature(g, int(h.To), center, depth)
		if seen[sig] {
			return false
		}
		seen[sig] = true
	}
	return true
}

// forceDistinctSignatures relabels conflicting neighbours of center with
// fresh vertex labels until all signatures differ, reporting success.
// Appendix I regenerates the whole graph on conflict; we keep that as the
// first strategy and use this as the bounded fallback so generation always
// terminates on pathological seeds.
func forceDistinctSignatures(rng *rand.Rand, g *graph.Graph, center, depth int, pool []graph.ID) bool {
	for rounds := 0; rounds < 8*len(pool)+32; rounds++ {
		seen := make(map[string]int32)
		clash := int32(-1)
		for _, h := range g.Neighbors(center) {
			sig := signature(g, int(h.To), center, depth)
			if _, dup := seen[sig]; dup {
				clash = h.To
				break
			}
			seen[sig] = h.To
		}
		if clash < 0 {
			return true
		}
		g.RelabelVertex(int(clash), pool[rng.Intn(len(pool))])
	}
	return false
}

// labelHistogram counts vertex labels; the multiset difference of two
// histograms lower-bounds the GED of the owning graphs (each differing
// position needs at least one vertex operation).
func labelHistogram(g *graph.Graph) map[graph.ID]int {
	h := make(map[graph.ID]int)
	for v := 0; v < g.NumVertices(); v++ {
		h[g.VertexLabel(v)]++
	}
	return h
}

// histogramLB returns max(n1,n2) − |h1 ∩ h2|: the vertex-label lower bound
// on GED between graphs with histograms h1, h2 and orders n1, n2.
func histogramLB(h1 map[graph.ID]int, n1 int, h2 map[graph.ID]int, n2 int) int {
	common := 0
	for l, c1 := range h1 {
		if c2, ok := h2[l]; ok {
			if c2 < c1 {
				common += c2
			} else {
				common += c1
			}
		}
	}
	m := n1
	if n2 > m {
		m = n2
	}
	return m - common
}

// clusterLabelPool assigns cluster ci a label sub-alphabet and random
// weights, so different clusters favour different vertex labels and their
// templates sit far apart in label space (the inter-cluster GED guarantee).
//
// Strategy by attempt:
//   - early attempts deal disjoint chunks of the alphabet round-robin, so
//     up to ⌊LV/poolSize⌋ concurrent clusters get fully disjoint pools;
//   - later attempts fall back to random pools (the weights still separate
//     most histograms);
//   - after exhaustAttempt the pool switches to fresh cluster-private
//     labels, guaranteeing termination at the cost of a slightly larger
//     alphabet (recorded in the dataset stats; see DESIGN.md §4).
func clusterLabelPool(rng *rand.Rand, dict *graph.Labels, lv, poolSize, ci, attempt int) ([]graph.ID, []float64) {
	if poolSize > lv {
		poolSize = lv
	}
	pool := make([]graph.ID, poolSize)
	switch {
	case attempt >= exhaustAttempt:
		for i := range pool {
			pool[i] = dict.Intern(fmt.Sprintf("vx%d-%d", ci, i))
		}
	case attempt < lv/poolSize:
		chunks := lv / poolSize
		chunk := (ci + attempt) % chunks
		for i := range pool {
			pool[i] = dict.Intern(fmt.Sprintf("v%d", chunk*poolSize+i))
		}
	default:
		perm := rng.Perm(lv)
		for i := range pool {
			pool[i] = dict.Intern(fmt.Sprintf("v%d", perm[i]))
		}
	}
	cum := make([]float64, poolSize)
	var acc float64
	for i := range cum {
		acc += 0.2 + rng.Float64()
		cum[i] = acc
	}
	return pool, cum
}

// exhaustAttempt is the template-retry count after which generation switches
// to cluster-private labels to guarantee progress.
const exhaustAttempt = 120
