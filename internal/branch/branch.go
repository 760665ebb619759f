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
	"sort"

	"gsim/internal/graph"
)

// Key is the canonical encoding of one branch: the varint of the root label
// followed by varints of the sorted incident-edge labels. Two branches are
// isomorphic (Definition 3) iff their Keys are equal.
type Key string

// Of computes the branch rooted at vertex v of g.
func Of(g *graph.Graph, v int) Key {
	hs := g.Neighbors(v)
	labels := make([]graph.ID, len(hs))
	for i, h := range hs {
		labels[i] = h.Label
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	buf := make([]byte, 0, 4*(len(labels)+1))
	var tmp [binary.MaxVarintLen32]byte
	put := func(id graph.ID) {
		// Through uint32, not uint64: ephemeral query labels (see
		// gsim.Database.NewQuery) carry negative IDs, which must encode
		// within MaxVarintLen32 bytes. Non-negative IDs keep the exact
		// encoding stored multisets already use.
		n := binary.PutUvarint(tmp[:], uint64(uint32(id)))
		buf = append(buf, tmp[:n]...)
	}
	put(g.VertexLabel(v))
	for _, l := range labels {
		put(l)
	}
	return Key(buf)
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

// MultisetOf computes BG for g: one Key per vertex, sorted.
func MultisetOf(g *graph.Graph) Multiset {
	ms := make(Multiset, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		ms[v] = Of(g, v)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	return ms
}

// GallopRatio is the size skew at which intersectSorted abandons the
// merge kernels for galloping search: once the larger multiset is at
// least this many times the smaller, probing the big side with
// exponential search costs O(|small|·log(|big|/|small|)) comparisons
// where the merge pays O(|small|+|big|). The value comes from the
// BenchmarkGallopSweep measurement recorded in README.md's performance
// notes, not from theory: galloping won at every measured skew from 2×
// up (1.2× faster at 2×, 7.7× at 64×) and merely tied the merge on
// balanced inputs, so the crossover sits at the textbook ratio of ~2 —
// the doubling probes' branch mispredictions never push it higher on
// this workload.
const GallopRatio = 2

// blockedMinLen is the smaller-side length below which the blocked merge
// kernel is not worth its block bookkeeping and the plain merge runs.
// Measured on clustered-ID multisets (the shape interning produces —
// see intersectBlocked): blocked loses ~25% at 512 elements, wins 1.8×
// at 1024 and 3× at 4096, so the cutover sits at 1024.
const blockedMinLen = 1024

// mergeBlock is the skip granularity of intersectBlocked: one comparison
// against a block's last element can retire the whole block.
const mergeBlock = 8

// intersectSorted returns |a ∩ b| for two multisets sorted under the same
// total order — the single implementation behind both the Key and the
// interned-ID paths, and the dispatcher of the three merge strategies:
// skewed inputs (size ratio ≥ GallopRatio) gallop the small side through
// the big one, balanced inputs of real length take the blocked merge,
// and tiny inputs take the plain linear merge. All paths implement the
// same multiset semantics: each matched pair consumes one occurrence
// from each side, so duplicates count as min(countA, countB). The
// dispatcher is kept tiny so it inlines into the scan hot path; the
// loops live in their own functions. (A fourth strategy — the bitset
// kernel of dense.go — needs per-side precomputation over the interned
// universe, so the batch scan layer dispatches to it by dictionary
// density rather than this per-call size check.)
func intersectSorted[T cmp.Ordered](a, b []T) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a)*GallopRatio <= len(b) {
		return intersectGallop(a, b)
	}
	if len(a) >= blockedMinLen {
		return intersectBlocked(a, b)
	}
	return intersectMerge(a, b)
}

// intersectMerge is the linear merge for balanced inputs. Requires
// len(a) ≤ len(b) (the dispatcher's invariant; the result is symmetric
// either way).
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

// intersectBlocked is the merge kernel for balanced inputs long enough to
// amortise block bookkeeping: both cursors advance in blocks of
// mergeBlock, skipping a whole block with one comparison when its last
// element is still below the other side's cursor, and falling into a
// reduced-branch scalar merge — equality, ≤ and ≥ each advance
// independently, which compiles without the three-way branch ladder of
// intersectMerge — only when the blocks can actually overlap. The skip
// pays off on clustered IDs: the dictionary interns a graph's branches
// contiguously, so two large graphs' multisets occupy mostly-disjoint ID
// bands and one comparison retires eight elements at a time. On fully
// interleaved (uniform-random) inputs the skips never fire and the
// bookkeeping costs ~25%, which is why blockedMinLen keeps small inputs
// on the plain merge. Requires nothing of the argument order;
// equivalence with the linear merge is pinned by TestBlockedMatchesMerge.
func intersectBlocked[T cmp.Ordered](a, b []T) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		if i+mergeBlock <= len(a) && a[i+mergeBlock-1] < b[j] {
			i += mergeBlock
			continue
		}
		if j+mergeBlock <= len(b) && b[j+mergeBlock-1] < a[i] {
			j += mergeBlock
			continue
		}
		for s := 0; s < mergeBlock && i < len(a) && j < len(b); s++ {
			va, vb := a[i], b[j]
			if va == vb {
				n++
			}
			if va <= vb {
				i++
			}
			if vb <= va {
				j++
			}
		}
	}
	return n
}

// intersectGallop intersects a small sorted multiset against a much larger
// one: for each element of small it advances a cursor into big by doubling
// steps (exponential search) and finishes with a binary search over the
// final probe window, so the cursor moves monotonically and each element
// costs O(log gap). Requires len(small) ≤ len(big); equivalence with the
// linear merge is pinned by TestGallopMatchesMerge.
func intersectGallop[T cmp.Ordered](small, big []T) int {
	n, j := 0, 0
	for i := 0; i < len(small) && j < len(big); i++ {
		x := small[i]
		if big[j] < x {
			// Gallop: find the first step whose element is ≥ x…
			step := 1
			lo := j
			for j+step < len(big) && big[j+step] < x {
				lo = j + step
				step <<= 1
			}
			hi := j + step
			if hi > len(big) {
				hi = len(big)
			}
			// …then binary-search the (lo, hi] window for the lower bound.
			for lo+1 < hi {
				mid := int(uint(lo+hi) >> 1)
				if big[mid] < x {
					lo = mid
				} else {
					hi = mid
				}
			}
			j = hi
			if j >= len(big) {
				break
			}
		}
		if big[j] == x {
			n++
			j++ // consume one occurrence: multiset, not set, semantics
		}
	}
	return n
}

// gbdOf applies Definition 4 / Eq. 1 to precomputed lengths and
// intersection size: max{|V1|,|V2|} − |B∩B|.
func gbdOf(la, lb, intersect int) int {
	if lb > la {
		la = lb
	}
	return la - intersect
}

// IntersectSize returns |a ∩ b| for sorted key multisets (the Key
// instantiation of intersectSorted's dispatch).
func IntersectSize(a, b Multiset) int { return intersectSorted(a, b) }

// GBD computes the Graph Branch Distance between two graphs whose branch
// multisets have been precomputed (Definition 4, Eq. 1).
func GBD(a, b Multiset) int { return gbdOf(len(a), len(b), IntersectSize(a, b)) }

// GBDGraphs computes GBD directly from graphs, building both multisets.
// Prefer GBD with cached multisets inside search loops.
func GBDGraphs(g1, g2 *graph.Graph) int {
	return GBD(MultisetOf(g1), MultisetOf(g2))
}

// VGBD is the variant branch distance of Eq. (26) used by the GBDA-V2
// alternative in Section VII-D:
//
//	VGBD(G1,G2) = max{|V1|,|V2|} − w·|BG1 ∩ BG2|
//
// The result is real-valued for fractional w; GBDA-V2 rounds it to the
// nearest integer before entering the probabilistic model.
func VGBD(a, b Multiset, w float64) float64 {
	return vgbdOf(len(a), len(b), IntersectSize(a, b), w)
}

// vgbdOf applies Eq. 26 to precomputed lengths and intersection size.
func vgbdOf(la, lb, intersect int, w float64) float64 {
	if lb > la {
		la = lb
	}
	return float64(la) - w*float64(intersect)
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

// IntersectSizeIDs returns the exact |a ∩ b| for sorted ID multisets
// through intersectSorted's gallop / blocked / merge dispatch. It serves
// the callers that consume the count itself whatever its value: prior
// sampling (db.SamplePairGBDs fits the GBD distribution, far pairs
// included), the prefilter's branch tier and index.Pruning (which compare
// the distance against their own bound), and the benchmark ladder's
// kernel rung. The posterior scorers do not: Φ is exactly 0 beyond
// GBD = 3τ̂, so they call IntersectAtLeastIDs and stop as soon as the
// intersection is provably too small to matter.
func IntersectSizeIDs(a, b IDs) int { return intersectSorted(a, b) }

// GBDIDs computes the exact Graph Branch Distance from interned
// multisets (Definition 4, Eq. 1), for the same callers as
// IntersectSizeIDs.
func GBDIDs(a, b IDs) int { return gbdOf(len(a), len(b), IntersectSizeIDs(a, b)) }

// IntersectAtLeastIDs is the bounded intersection behind the posterior
// scorers: it reports whether |a ∩ b| ≥ need, and the exact |a ∩ b| when
// it is. Algorithm 1 consumes GBD only through Φ = Pr[GED ≤ τ̂ | GBD = ϕ],
// which the Section VI-B short circuit makes exactly 0 for ϕ > 3τ̂; with
// need = max{|V1|,|V2|} − 3τ̂ a false answer therefore decides the pair
// without its count.
//
// It is one linear merge carrying a miss budget per side: an element
// passed over without a partner can never be matched later (both sides
// are sorted), so once a has missed more than len(a)−need elements, or b
// more than len(b)−need, fewer than need matches remain possible and the
// merge stops. need > min(len(a), len(b)) fails before the first compare;
// need ≤ 0 never fails and the call is a plain merge. On the benchmark
// corpus 99.9% of (query, entry) pairs fail, most of them on the sizes
// alone, and the failing merges stop after about 3τ̂ steps.
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

// VGBDIDs is VGBD (Eq. 26) over interned multisets.
func VGBDIDs(a, b IDs, w float64) float64 {
	return vgbdOf(len(a), len(b), IntersectSizeIDs(a, b), w)
}

// LowerBoundGED is the classic branch-based GED lower bound used by the
// filter literature the paper builds on ([15]): each edit operation changes
// at most two branches, so GED ≥ ceil(GBD/2). The search layer offers it as
// an extra sanity filter and tests use it to cross-check generators.
func LowerBoundGED(gbd int) int { return (gbd + 1) / 2 }
