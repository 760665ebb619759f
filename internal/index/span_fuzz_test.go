package index

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

// FuzzSpanCodec encodes two sorted label multisets as consecutive arena
// sections — an entry's vertex span then its edge span — at a non-zero
// offset, and checks the three arena readers against each other and the
// oracle: decodeSpan round-trips both sections, spanEnd agrees with the
// decoder on where each ends, and spanDistance of one multiset against the
// other's section equals multisetDistance and stops at the same end. The
// seeds under testdata/fuzz/FuzzSpanCodec are an empty pair, a single run,
// a duplicate-heavy pair and one whose deltas wrap around 2³².
func FuzzSpanCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, base, step int32, rawA, rawB []byte) {
		a, b := fuzzLabels(base, step, rawA), fuzzLabels(base, step, rawB)
		const off = 3
		arena := appendSpan(make([]byte, off), a)
		mid := uint32(len(arena))
		arena = appendSpan(arena, b)
		end := uint32(len(arena))

		for _, sec := range []struct {
			labels, other []graph.ID
			off, end      uint32
		}{{a, b, off, mid}, {b, a, mid, end}} {
			got, gotEnd := decodeSpan(arena, sec.off, len(sec.labels))
			if !slices.Equal(got, sec.labels) || gotEnd != sec.end {
				t.Fatalf("section at %d: decoded %v ending at %d, want %v ending at %d",
					sec.off, got, gotEnd, sec.labels, sec.end)
			}
			if se := spanEnd(arena, sec.off, len(sec.labels)); se != sec.end {
				t.Fatalf("section at %d: spanEnd %d, want %d", sec.off, se, sec.end)
			}
			dist, dEnd := spanDistance(sec.other, arena, sec.off, len(sec.labels))
			if want := multisetDistance(sec.other, sec.labels); dist != want || dEnd != sec.end {
				t.Fatalf("section at %d: spanDistance %d ending at %d, want %d ending at %d",
					sec.off, dist, dEnd, want, sec.end)
			}
		}
	})
}
