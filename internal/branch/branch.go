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
// the ordering algorithm" representation. The database layer interns each
// distinct Key to a dense ID (IDs, the form queries are resolved into) and
// stores each graph's multiset delta-coded over those IDs (Coded); the
// bounded merge reads a query's IDs against a stored multiset's bytes.
package branch

import (
	"encoding/binary"
	"slices"
	"strings"

	"gsim/internal/graph"
)

// Key is the canonical encoding of one branch: the varint of the root label
// followed by varints of the sorted incident-edge labels. Two branches are
// isomorphic (Definition 3) iff their Keys are equal.
type Key string

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
	putUvarint(b, uint32(g.VertexLabel(v)))
	for _, l := range labels {
		putUvarint(b, uint32(l))
	}
	return labels
}

// branchLen is the length of the Key of the branch rooted at v, which
// does not depend on the order of its labels.
func branchLen(g *graph.Graph, v int) int {
	n := uvarintLen(uint32(g.VertexLabel(v)))
	for _, h := range g.Neighbors(v) {
		n += uvarintLen(uint32(h.Label))
	}
	return n
}

// Decode splits a Key back into the root label and the sorted edge labels.
// It is the inverse of the encoding MultisetOf writes and exists mainly for
// diagnostics and tests.
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

// IntersectSize returns |a ∩ b| for sorted key multisets: the paper's
// linear merge (Eq. 2). Each matched pair consumes one occurrence from
// each side, so duplicates count as min(countA, countB).
func IntersectSize(a, b Multiset) int {
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

// GBD computes the Graph Branch Distance between two graphs whose branch
// multisets have been precomputed (Definition 4, Eq. 1).
func GBD(a, b Multiset) int { return GBDOf(len(a), len(b), IntersectSize(a, b)) }

// GBDGraphs computes GBD directly from graphs, building both multisets.
// Prefer GBD with cached multisets inside search loops.
func GBDGraphs(g1, g2 *graph.Graph) int {
	return GBD(MultisetOf(g1), MultisetOf(g2))
}

// IDs is a branch multiset in interned form: one dense uint32 branch ID
// per vertex, sorted numerically. It is the form a query is resolved into
// (db.BranchDict.ResolveMultiset) and the scratch a stored multiset is
// interned through before it is coded (Coded), which is how the db layer
// keeps it.
//
// Two ID multisets are only comparable when both were resolved through the
// same dictionary (plus, for queries, a per-query ephemeral overlay — see
// db.BranchDict.ResolveMultiset). Any shared total order makes the linear
// merge correct; numeric ID order is used because it needs no key lookups,
// and intersection size — the only quantity GBD consumes — is order-
// independent.
type IDs []uint32

// Coded is a stored branch multiset: the uvarint of its length, then the
// uvarint gaps between its ascending IDs (the first ID is its gap from
// 0, a repeated ID a gap of 0), in one immutable string. Sorted IDs from
// a dense dictionary are mostly one byte apiece against IDs' four. Its
// length is the graph's vertex count (one branch per vertex), read by
// Len: Coded is a struct so that len() on the bytes does not compile. The
// zero Coded is the empty multiset.
type Coded struct{ s string }

// Encode codes ids, which must be sorted ascending, in one allocation.
func Encode(ids IDs) Coded {
	n, prev := uvarintLen(uint32(len(ids))), uint32(0)
	for _, id := range ids {
		n += uvarintLen(id - prev)
		prev = id
	}
	var b strings.Builder
	b.Grow(n)
	putUvarint(&b, uint32(len(ids)))
	prev = 0
	for _, id := range ids {
		putUvarint(&b, id-prev)
		prev = id
	}
	return Coded{b.String()}
}

// Len is the number of IDs c holds.
func (c Coded) Len() int {
	n, _ := c.count()
	return n
}

// AppendTo appends c's IDs, ascending, to dst and returns it.
func (c Coded) AppendTo(dst IDs) IDs {
	s := c.s
	n, p := c.count()
	dst = slices.Grow(dst, n)
	v := uint32(0)
	for p < len(s) {
		var gap uint32
		gap, p = uvarint(s, p)
		v += gap
		dst = append(dst, v)
	}
	return dst
}

// count decodes c's length prefix: the length and the offset of the first
// gap.
func (c Coded) count() (n, p int) {
	if c.s == "" {
		return 0, 0
	}
	x, p := uvarint(c.s, 0)
	return int(x), p
}

// uvarint decodes the uvarint at s[p:] and returns it with the offset
// past it. Coded strings come only from Encode, so it checks nothing.
func uvarint(s string, p int) (uint32, int) {
	x := uint32(s[p])
	if x < 0x80 {
		return x, p + 1
	}
	return uvarintTail(s, p+1, x)
}

// uvarintTail finishes a uvarint whose first byte, x, had its high bit
// set; p is the offset past that byte.
func uvarintTail(s string, p int, x uint32) (uint32, int) {
	x &= 0x7f
	for shift := 7; ; shift += 7 {
		c := uint32(s[p])
		p++
		x |= (c & 0x7f) << shift
		if c < 0x80 {
			return x, p
		}
	}
}

func uvarintLen(x uint32) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

func putUvarint(b *strings.Builder, x uint32) {
	for ; x >= 0x80; x >>= 7 {
		b.WriteByte(byte(x) | 0x80)
	}
	b.WriteByte(byte(x))
}

// IntersectSizeIDs returns the exact |a ∩ b| of a query multiset and a
// stored one: IntersectAtLeastIDs with no bound. It serves the callers
// that consume the count itself whatever its value: prior sampling
// (db.SamplePairGBDsEntries fits the GBD distribution, far pairs
// included), the index.PairLowerBound oracle the columnar prefilter is
// tested against, and the benchmark ladder's kernel rung. The query path
// does not: the posterior scorers and the prefilter's branch tier only
// ask whether the intersection reaches a bound, so they call
// IntersectAtLeastIDs with one and stop as soon as it provably cannot.
func IntersectSizeIDs(a IDs, b Coded) int {
	n, _ := IntersectAtLeastIDs(a, b, 0)
	return n
}

// GBDIDs computes the exact Graph Branch Distance between a query
// multiset and a stored one (Definition 4, Eq. 1), for the same callers
// as IntersectSizeIDs.
func GBDIDs(a IDs, b Coded) int { return GBDOf(len(a), b.Len(), IntersectSizeIDs(a, b)) }

// IntersectAtLeastIDs is the one bounded intersection kernel: it reports
// whether |a ∩ b| ≥ need, and the exact |a ∩ b| when it is, decoding b
// as it walks. Algorithm 1 consumes GBD only through
// Φ = Pr[GED ≤ τ̂ | GBD = ϕ], which the Section VI-B short circuit makes
// exactly 0 for ϕ > 2τ̂ (one edit relabels one vertex or one edge,
// changing at most two branches); with need = max{|V1|,|V2|} − 2τ̂ a
// false answer therefore decides the pair without its count. The
// prefilter's branch tier reaches the same need by its own argument
// (⌈GBD/2⌉ > τ̂ ⇔ |a ∩ b| < max − 2τ̂).
//
// It is one linear merge carrying a miss budget per side: an element
// passed over without a partner can never be matched later (both sides
// are sorted), so once a has missed more than len(a)−need elements, or b
// more than b.Len()−need, fewer than need matches remain possible and the
// merge stops. need > min(len(a), b.Len()) fails before the first
// compare; need ≤ 0 never fails and the call is a plain merge. On the
// benchmark corpus 99.9% of (query, entry) pairs fail, most of them on
// the sizes alone, and the failing merges stop after about 2τ̂ steps.
func IntersectAtLeastIDs(a IDs, b Coded, need int) (n int, ok bool) {
	s := b.s
	if s == "" {
		return 0, need <= 0 // the zero Coded, empty
	}
	lb, p := uvarint(s, 0)
	missA, missB := len(a)-need, int(lb)-need
	if missA < 0 || missB < 0 {
		return 0, false
	}
	if lb == 0 {
		return 0, true // need ≤ 0 here
	}
	// vb is b's current element; p is past its gap, and reaches len(s)
	// once the last one is current. Once either side runs out, the
	// unvisited tail of the other misses too.
	vb, p := uvarint(s, p)
	for i := 0; i < len(a); {
		va := a[i]
		for vb < va {
			if missB--; missB < 0 {
				return 0, false
			}
			if p >= len(s) {
				return n, n >= need
			}
			var gap uint32
			gap, p = uvarint(s, p)
			vb += gap
		}
		if va < vb {
			if missA--; missA < 0 {
				return 0, false
			}
			i++
			continue
		}
		// A run of matches, the common case of a near pair, in a loop of
		// its own.
		for {
			n++
			if i++; p >= len(s) {
				return n, n >= need
			}
			var gap uint32
			gap, p = uvarint(s, p)
			vb += gap
			if i >= len(a) || a[i] != vb {
				break
			}
		}
	}
	return n, n >= need
}

// LowerBoundGED is the classic branch-based GED lower bound used by the
// filter literature the paper builds on ([15]): each edit operation changes
// at most two branches, so GED ≥ ceil(GBD/2). The search layer offers it as
// an extra sanity filter and tests use it to cross-check generators.
func LowerBoundGED(gbd int) int { return (gbd + 1) / 2 }
