// Package branch implements the branch structures of Section III of the
// paper: the branch B(v) = {L(v), N(v)} rooted at each vertex (Definition 2),
// branch isomorphism (Definition 3), sorted branch multisets, and the Graph
// Branch Distance (Definition 4)
//
//	GBD(G1,G2) = max{|V1|,|V2|} − |BG1 ∩ BG2|
//
// computed by a linear merge over pre-sorted multisets, O(n·d) total (Eq. 2).
//
// A branch is materialised as a canonical byte-string Key so that branch
// isomorphism is plain string equality and multiset ordering is byte order;
// this is the practical counterpart of the paper's "list of strings sorted by
// the ordering algorithm" representation and is what the database layer
// pre-computes and stores with each graph.
package branch

import (
	"cmp"
	"encoding/binary"
	"slices"
	"strings"

	"gsim/internal/graph"
)

// Key is the canonical encoding of one branch: the varint of the root label
// followed by varints of the sorted incident-edge labels. Two branches are
// isomorphic (Definition 3) iff their Keys are equal.
type Key string

// Of computes the branch rooted at vertex v of g.
func Of(g *graph.Graph, v int) Key {
	var labels [maxStackDegree]graph.ID
	var b strings.Builder
	b.Grow(branchLen(g, v))
	appendBranch(&b, labels[:0], g, v)
	return Key(b.String())
}

// maxStackDegree is the degree up to which appendBranch's callers sort a
// vertex's edge labels in a stack array; a higher degree grows it once.
const maxStackDegree = 64

// appendBranch writes the Key of the branch rooted at v to b: the root
// label, then the incident edge labels in ascending order, each a varint
// of the label through uint32. Ephemeral query labels (see
// gsim.Database.NewQuery) carry negative IDs, which must encode within
// MaxVarintLen32 bytes; non-negative IDs keep the exact encoding stored
// multisets already use. labels is scratch for the sort, returned grown.
func appendBranch(b *strings.Builder, labels []graph.ID, g *graph.Graph, v int) []graph.ID {
	labels = labels[:0]
	for _, h := range g.Neighbors(v) {
		labels = append(labels, h.Label)
	}
	slices.Sort(labels)
	putLabel(b, g.VertexLabel(v))
	for _, l := range labels {
		putLabel(b, l)
	}
	return labels
}

func putLabel(b *strings.Builder, id graph.ID) {
	var tmp [binary.MaxVarintLen32]byte
	b.Write(binary.AppendUvarint(tmp[:0], uint64(uint32(id))))
}

// branchLen is the length of the Key of the branch rooted at v, which
// does not depend on the order of its labels.
func branchLen(g *graph.Graph, v int) int {
	n := labelLen(g.VertexLabel(v))
	for _, h := range g.Neighbors(v) {
		n += labelLen(h.Label)
	}
	return n
}

func labelLen(id graph.ID) int {
	n := 1
	for x := uint32(id); x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// Decode splits a Key back into the root label and the sorted edge labels.
// It is the inverse of Of and exists mainly for diagnostics and tests.
func (k Key) Decode() (root graph.ID, edges []graph.ID) {
	b := []byte(k)
	v, n := binary.Uvarint(b)
	root = graph.ID(uint32(v))
	b = b[n:]
	for len(b) > 0 {
		v, n = binary.Uvarint(b)
		edges = append(edges, graph.ID(uint32(v)))
		b = b[n:]
	}
	return root, edges
}

// Multiset is the sorted multiset BG of all branches of one graph
// (Definition 2). The db layer stores one per graph.
type Multiset []Key

// MultisetOf computes BG for g: one Key per vertex, sorted. Every key is
// written into one string, and each Key is a substring of it, so a graph
// costs a fixed handful of allocations whatever its size. A caller that
// keeps one Key beyond the multiset's life keeps the whole string alive
// (the branch dictionary clones the keys it stores).
func MultisetOf(g *graph.Graph) Multiset {
	n := g.NumVertices()
	size := 0
	for v := 0; v < n; v++ {
		size += branchLen(g, v)
	}
	var labels [maxStackDegree]graph.ID
	scratch := labels[:0]
	var b strings.Builder
	b.Grow(size)
	for v := 0; v < n; v++ {
		scratch = appendBranch(&b, scratch, g, v)
	}
	arena := b.String()
	ms := make(Multiset, n)
	off := 0
	for v := range ms {
		end := off + branchLen(g, v)
		ms[v] = Key(arena[off:end])
		off = end
	}
	slices.Sort(ms)
	return ms
}

// intersectMerge returns |a ∩ b| for two multisets sorted under the same
// total order — the paper's linear merge (Eq. 2) and the single
// implementation behind both the Key and the interned-ID exact counts.
// Each matched pair consumes one occurrence from each side, so duplicates
// count as min(countA, countB).
func intersectMerge[T cmp.Ordered](a, b []T) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// GBDOf applies Definition 4 / Eq. 1 to precomputed multiset sizes and
// their intersection size: max{|V1|,|V2|} − |B∩B|.
func GBDOf(la, lb, intersect int) int {
	if lb > la {
		la = lb
	}
	return la - intersect
}

// IntersectSize returns |a ∩ b| for sorted key multisets.
func IntersectSize(a, b Multiset) int { return intersectMerge(a, b) }

// GBD computes the Graph Branch Distance between two graphs whose branch
// multisets have been precomputed (Definition 4, Eq. 1).
func GBD(a, b Multiset) int { return GBDOf(len(a), len(b), IntersectSize(a, b)) }

// GBDGraphs computes GBD directly from graphs, building both multisets.
// Prefer GBD with cached multisets inside search loops.
func GBDGraphs(g1, g2 *graph.Graph) int {
	return GBD(MultisetOf(g1), MultisetOf(g2))
}

// IDs is a branch multiset in interned form: one dense uint32 branch ID
// per vertex, sorted numerically. The db layer's branch dictionary interns
// each distinct Key once and stores entries this way, so a multiset costs
// 4 bytes per vertex instead of a string header plus key bytes, and the
// merges below compare integers instead of strings.
//
// Two ID multisets are only comparable when both were resolved through the
// same dictionary (plus, for queries, a per-query ephemeral overlay — see
// db.BranchDict.ResolveMultiset). Any shared total order makes the linear
// merge correct; numeric ID order is used because it needs no key lookups,
// and intersection size — the only quantity GBD consumes — is order-
// independent.
type IDs []uint32

// IntersectSizeIDs returns the exact |a ∩ b| for sorted ID multisets by
// the plain linear merge. It serves the callers that consume the count
// itself whatever its value: prior sampling (db.SamplePairGBDsEntries fits
// the GBD distribution, far pairs included), the index.PairLowerBound
// oracle the columnar prefilter is tested against, and the benchmark
// ladder's kernel rung. The query path does not: the posterior scorers
// and the prefilter's branch tier only ask whether the intersection
// reaches a bound, so they call IntersectAtLeastIDs and stop as soon as
// it provably cannot.
func IntersectSizeIDs(a, b IDs) int { return intersectMerge(a, b) }

// GBDIDs computes the exact Graph Branch Distance from interned
// multisets (Definition 4, Eq. 1), for the same callers as
// IntersectSizeIDs.
func GBDIDs(a, b IDs) int { return GBDOf(len(a), len(b), IntersectSizeIDs(a, b)) }

// IntersectAtLeastIDs is the bounded intersection of the query path: it
// reports whether |a ∩ b| ≥ need, and the exact |a ∩ b| when it is.
// Algorithm 1 consumes GBD only through Φ = Pr[GED ≤ τ̂ | GBD = ϕ], which
// the Section VI-B short circuit makes exactly 0 for ϕ > 2τ̂ (one edit
// relabels one vertex or one edge, changing at most two branches); with
// need = max{|V1|,|V2|} − 2τ̂ a false answer therefore decides the pair
// without its count. The prefilter's branch tier reaches the same need by
// its own argument (⌈GBD/2⌉ > τ̂ ⇔ |a ∩ b| < max − 2τ̂).
//
// It is one linear merge carrying a miss budget per side: an element
// passed over without a partner can never be matched later (both sides
// are sorted), so once a has missed more than len(a)−need elements, or b
// more than len(b)−need, fewer than need matches remain possible and the
// merge stops. need > min(len(a), len(b)) fails before the first compare;
// need ≤ 0 never fails and the call is a plain merge. On the benchmark
// corpus 99.9% of (query, entry) pairs fail, most of them on the sizes
// alone, and the failing merges stop after about 2τ̂ steps.
func IntersectAtLeastIDs(a, b IDs, need int) (n int, ok bool) {
	missA, missB := len(a)-need, len(b)-need
	if missA < 0 || missB < 0 {
		return 0, false
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		va, vb := a[i], b[j]
		switch {
		case va == vb:
			n++
			i++
			j++
		case va < vb:
			i++
			if missA--; missA < 0 {
				return 0, false
			}
		default:
			j++
			if missB--; missB < 0 {
				return 0, false
			}
		}
	}
	// The unvisited tail of the longer side misses too.
	return n, n >= need
}

// LowerBoundGED is the classic branch-based GED lower bound used by the
// filter literature the paper builds on ([15]): each edit operation changes
// at most two branches, so GED ≥ ceil(GBD/2). The search layer offers it as
// an extra sanity filter and tests use it to cross-check generators.
func LowerBoundGED(gbd int) int { return (gbd + 1) / 2 }
