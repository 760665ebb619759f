// Package index implements cheap admissible pre-filters for graph
// similarity search, in the spirit of the multi-layered filtering the
// paper's related work discusses ([35], and the size/label-filter
// tradition of [4][19]). Each filter computes a true lower bound on
// GED(Q, G) in time linear in the graph summaries, so pruning a graph
// whose bound exceeds τ̂ can never cost recall:
//
//   - size filter: every operation changes |V| or |E| by at most one, so
//     GED ≥ max(||V1|−|V2||, ||E1|−|E2||);
//   - label filter: vertex operations change the vertex-label multiset by
//     at most one element, edge operations the edge-label multiset, and
//     the two operation families are disjoint, so
//     GED ≥ vdist + edist (multiset distances);
//   - branch filter: one operation changes at most two branches, so
//     GED ≥ ⌈GBD/2⌉ (the bound of Zheng et al. [15], free here because
//     branch multisets are precomputed by the database layer).
//
// The composite bound is the maximum of the three.
//
// The filter is the columnar Store (pre.go): the sharded store keeps one
// per shard, maintained incrementally under the shard's mutation lock
// (see internal/shard), and View.Tier is the one place that decides
// which layer prunes a pair. Summary is the uncompressed per-graph form
// the store is built from and queries are prepared in; PairLowerBound
// and PairPrunable evaluate the composite bound straight from two
// Summaries and are the reference oracle the columnar path is tested
// against.
//
// Beside the filter, the package holds each shard's branch postings
// (postings.go): the inverted index a scan generates its candidates from,
// so the filter and the scorers only ever see graphs that share enough
// branches with the query to matter.
package index

import (
	"slices"

	"gsim/internal/branch"
	"gsim/internal/db"
	"gsim/internal/graph"
)

// Summary is the constant-size filter signature of one graph.
type Summary struct {
	V, E    int
	VLabels []graph.ID // sorted vertex-label multiset
	ELabels []graph.ID // sorted edge-label multiset
}

// Summarize extracts a Summary from a graph.
func Summarize(g *graph.Graph) Summary {
	s := Summary{V: g.NumVertices(), E: g.NumEdges()}
	s.VLabels = make([]graph.ID, s.V)
	for v := 0; v < s.V; v++ {
		s.VLabels[v] = g.VertexLabel(v)
	}
	// slices.Sort, not sort.Slice: this runs once per stored graph on the
	// ingest path, and the closure-based form allocates per call.
	slices.Sort(s.VLabels)
	s.ELabels = make([]graph.ID, 0, s.E)
	for _, e := range g.Edges() {
		s.ELabels = append(s.ELabels, e.Label)
	}
	slices.Sort(s.ELabels)
	return s
}

// LowerBound returns the composite size+label lower bound on GED between
// the two summarised graphs — the oracle for the columnar size and label
// tiers.
func (s Summary) LowerBound(o Summary) int {
	lb := abs(s.V - o.V)
	if d := abs(s.E - o.E); d > lb {
		lb = d
	}
	if d := multisetDistance(s.VLabels, o.VLabels) + multisetDistance(s.ELabels, o.ELabels); d > lb {
		lb = d
	}
	return lb
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
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

// PairLowerBound computes the composite lower bound — size, label and
// branch layers — between a prepared query (summary + interned branch
// multiset) and one stored entry with its summary, by the plain
// definitions: full multiset merges and the exact GBD. It is the
// reference oracle View.Tier is tested against, not a scan path.
func PairLowerBound(q Summary, qBranches branch.IDs, s Summary, e *db.Entry) int {
	lb := q.LowerBound(s)
	if bb := branch.LowerBoundGED(branch.GBDIDs(qBranches, e.Branches)); bb > lb {
		lb = bb
	}
	return lb
}

// PairPrunable reports whether the entry provably violates GED ≤ tau —
// the oracle form of View.Tier(…) != TierNone.
func PairPrunable(q Summary, qBranches branch.IDs, s Summary, e *db.Entry, tau int) bool {
	return PairLowerBound(q, qBranches, s, e) > tau
}
