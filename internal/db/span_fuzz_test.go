package db

import (
	"slices"
	"testing"

	"gsim/internal/graph"
)

// fuzzLabels maps each input byte to the label base + step·int8(byte) in
// wrapping int32 arithmetic, then sorts: repeated bytes give runs,
// negative bytes and bases give ephemeral (negative) IDs, and large steps
// spread the labels over the whole int32 range, so the codec's uint32
// deltas wrap around 2³².
func fuzzLabels(base, step int32, raw []byte) []graph.ID {
	out := make([]graph.ID, len(raw))
	for i, c := range raw {
		out[i] = graph.ID(base + step*int32(int8(c)))
	}
	slices.Sort(out)
	return out
}

// decodeSpan reconstructs a span's sorted vertex- and edge-label
// multisets — the test inverse of appendSpan — and returns the offset
// past its edge section.
func decodeSpan(span string) (vl, el []graph.ID, end int) {
	nv, ne, p := SpanSizes(span)
	vl, p = decodeSection(span, p, nv)
	el, p = decodeSection(span, p, ne)
	return vl, el, p
}

// decodeSection decodes the section at off holding count label
// occurrences and returns the offset past it.
func decodeSection(span string, off, count int) ([]graph.ID, int) {
	out := make([]graph.ID, 0, count)
	p := off
	prev := uint32(0)
	for len(out) < count {
		tok, n := uvarint(span, p)
		p = n
		run := 1
		if tok&1 != 0 {
			r, n := uvarint(span, p)
			p = n
			run = int(r) + 2
		}
		prev += uint32(tok >> 1)
		for k := 0; k < run; k++ {
			out = append(out, graph.ID(prev))
		}
	}
	return out, p
}

// FuzzSpanCodec encodes two sorted label multisets as one span — a as its
// vertex section, b as its edge section — and checks the span readers
// against each other and the oracle: decodeSpan round-trips the |V|/|E|
// header and both sections, SpanSizes reads the header back, and
// SpanDistance of each multiset against the other's section equals
// MultisetDistance and stops where that section ends. The seeds under
// testdata/fuzz/FuzzSpanCodec are an empty pair, a single run, a
// duplicate-heavy pair and one whose deltas wrap around 2³².
func FuzzSpanCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, base, step int32, rawA, rawB []byte) {
		a, b := fuzzLabels(base, step, rawA), fuzzLabels(base, step, rawB)
		span := string(appendSpan(nil, a, b))

		gotA, gotB, end := decodeSpan(span)
		if !slices.Equal(gotA, a) || !slices.Equal(gotB, b) || end != len(span) {
			t.Fatalf("decoded (%v, %v) ending at %d, want (%v, %v) ending at %d", gotA, gotB, end, a, b, len(span))
		}
		nv, ne, off := SpanSizes(span)
		if nv != len(a) || ne != len(b) {
			t.Fatalf("header (%d, %d), want (%d, %d)", nv, ne, len(a), len(b))
		}
		mid := off + len(appendSection(nil, a))
		for _, sec := range []struct {
			labels, other []graph.ID
			off, end      int
		}{{a, b, off, mid}, {b, a, mid, len(span)}} {
			dist, dEnd := SpanDistance(sec.other, span, sec.off, len(sec.labels))
			if want := MultisetDistance(sec.other, sec.labels); dist != want || dEnd != sec.end {
				t.Fatalf("section at %d: SpanDistance %d ending at %d, want %d ending at %d",
					sec.off, dist, dEnd, want, sec.end)
			}
		}
	})
}
