package db

import (
	"math/rand"
	"slices"
	"testing"

	"gsim/internal/branch"
	"gsim/internal/graph"
)

// randLabels draws a sorted label multiset of n occurrences over k
// distinct values starting at base — negative bases exercise the
// ephemeral-query wraparound of the delta codec.
func randLabels(rng *rand.Rand, n, k int, base int32) []graph.ID {
	out := make([]graph.ID, n)
	for i := range out {
		out[i] = graph.ID(base + int32(rng.Intn(k)))
	}
	slices.Sort(out)
	return out
}

// TestSpanRoundTrip: decodeSpan inverts appendSpan across duplicate-heavy,
// sparse, negative-ID and empty multisets in either section, and
// SpanSizes reads the header back.
func TestSpanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct {
		n, k int
		base int32
	}{
		{0, 1, 0}, {1, 1, 0}, {50, 2, 0}, {50, 1000, 0},
		{200, 3, 500}, {30, 4, -7}, {8, 2, -(1 << 30)},
	}
	for _, s := range shapes {
		for trial := 0; trial < 20; trial++ {
			vl := randLabels(rng, s.n, s.k, s.base)
			el := randLabels(rng, rng.Intn(s.n+1), s.k, s.base)
			span := string(appendSpan(nil, vl, el))
			gotV, gotE, end := decodeSpan(span)
			if !slices.Equal(gotV, vl) || !slices.Equal(gotE, el) {
				t.Fatalf("shape %+v: round-trip mismatch\nwant %v %v\ngot  %v %v", s, vl, el, gotV, gotE)
			}
			if end != len(span) {
				t.Fatalf("shape %+v: decode end %d, span len %d", s, end, len(span))
			}
			if nv, ne, _ := SpanSizes(span); nv != len(vl) || ne != len(el) {
				t.Fatalf("shape %+v: header (%d, %d), want (%d, %d)", s, nv, ne, len(vl), len(el))
			}
		}
	}
}

// TestSpanDistanceMatchesOracle: the streaming span merge equals
// MultisetDistance over the decoded labels, in either section, including
// queries carrying negative ephemeral labels that sort before everything
// stored.
func TestSpanDistanceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		vl := randLabels(rng, rng.Intn(60), 1+rng.Intn(8), 0)
		el := randLabels(rng, rng.Intn(60), 1+rng.Intn(8), 0)
		qbase := int32(0)
		if trial%3 == 0 {
			qbase = -3 // mix ephemeral negatives into the query side
		}
		q := randLabels(rng, rng.Intn(60), 1+rng.Intn(8), qbase)
		span := string(appendSpan(nil, vl, el))
		_, _, off := SpanSizes(span)
		vd, mid := SpanDistance(q, span, off, len(vl))
		if want := MultisetDistance(q, vl); vd != want {
			t.Fatalf("trial %d: vertex SpanDistance %d, oracle %d\nq=%v\nstored=%v", trial, vd, want, q, vl)
		}
		ed, end := SpanDistance(q, span, mid, len(el))
		if want := MultisetDistance(q, el); ed != want {
			t.Fatalf("trial %d: edge SpanDistance %d, oracle %d\nq=%v\nstored=%v", trial, ed, want, q, el)
		}
		if end != len(span) {
			t.Fatalf("trial %d: end %d, span %d", trial, end, len(span))
		}
	}
}

// TestNewEntrySpan: an entry's span encodes its graph's sizes and sorted
// label multisets, and computing it allocates only the string for graphs
// that fit the stack scratch.
func TestNewEntrySpan(t *testing.T) {
	dict := graph.NewLabels()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(2*spanScratch/3)
		g := graph.New(n)
		var vl, el []graph.ID
		for v := 0; v < n; v++ {
			l := dict.Intern(string(rune('A' + rng.Intn(5))))
			g.AddVertex(l)
			vl = append(vl, l)
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if l := dict.Intern(string(rune('a' + rng.Intn(3)))); u != v && g.AddEdge(u, v, l) == nil {
				el = append(el, l)
			}
		}
		slices.Sort(vl)
		slices.Sort(el)
		e := NewEntry(uint64(trial), g, branch.Coded{})
		if want := string(appendSpan(nil, vl, el)); e.Labels != want {
			t.Fatalf("trial %d: span %q, want %q", trial, e.Labels, want)
		}
		if g.NumVertices()+g.NumEdges() <= spanScratch {
			if allocs := testing.AllocsPerRun(5, func() { _ = labelSpan(g) }); allocs != 1 {
				t.Fatalf("trial %d (|V|+|E| = %d): %v allocations per span, want 1", trial, g.NumVertices()+g.NumEdges(), allocs)
			}
		}
	}
}
