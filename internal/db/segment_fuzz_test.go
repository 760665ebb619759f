package db

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzReadSegment feeds the segment decoder arbitrary bodies: payload is
// everything between the magic and the trailer, and the harness computes
// the CRC-32C over it so mutations reach the decoder instead of the
// checksum. ReadSegment must never panic, and whatever it accepts must
// survive WriteSegment → ReadSegment unchanged. The seeds under
// testdata/fuzz/FuzzReadSegment are a valid two-graph segment, an empty
// one, and one per rejection: truncated varint, label ≥ nLabels,
// endpoint ≥ nv, self-loop, duplicate edge, trailing bytes.
func FuzzReadSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte, nLabels uint8) {
		data := append(append([]byte(nil), segMagic[:]...), payload...)
		data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, segCastagnoli))
		ids, gs, err := ReadSegment(bytes.NewReader(data), int(nLabels))
		if err != nil {
			return
		}
		entries := make([]*Entry, len(gs))
		for i, g := range gs {
			entries[i] = &Entry{ID: ids[i], G: g}
		}
		var buf bytes.Buffer
		if err := WriteSegment(&buf, entries); err != nil {
			t.Fatal(err)
		}
		ids2, gs2, err := ReadSegment(&buf, int(nLabels))
		if err != nil {
			t.Fatalf("re-reading an accepted segment: %v", err)
		}
		if !reflect.DeepEqual(ids2, ids) || len(gs2) != len(gs) {
			t.Fatalf("ids %v (%d graphs) round-tripped to %v (%d graphs)", ids, len(gs), ids2, len(gs2))
		}
		for i, g := range gs {
			h := gs2[i]
			if h.Name != g.Name || h.NumVertices() != g.NumVertices() || !reflect.DeepEqual(h.Edges(), g.Edges()) {
				t.Fatalf("graph %d: %q nv=%d %v round-tripped to %q nv=%d %v",
					i, g.Name, g.NumVertices(), g.Edges(), h.Name, h.NumVertices(), h.Edges())
			}
			for v := 0; v < g.NumVertices(); v++ {
				if h.VertexLabel(v) != g.VertexLabel(v) {
					t.Fatalf("graph %d vertex %d: label %d round-tripped to %d", i, v, g.VertexLabel(v), h.VertexLabel(v))
				}
			}
		}
	})
}
