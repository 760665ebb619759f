package wal

import (
	"testing"

	"gsim/internal/graph"
)

// FuzzDecodeRecord feeds the record decoder arbitrary payloads (the frame
// CRC is the scanner's concern, FuzzScan's). DecodeRecord must never
// panic, and whatever it accepts must survive AppendRecord → DecodeRecord
// with the same op, ID and graph, labels compared by name. The seeds under
// testdata/fuzz/FuzzDecodeRecord are a store, an update and a delete
// record, and one per rejection: unknown kind, label index past the
// table, endpoint out of range, self-loop, duplicate edge, truncated,
// trailing byte.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		dict := graph.NewLabels()
		rec, err := DecodeRecord(payload, dict)
		if err != nil {
			return
		}
		again := graph.NewLabels()
		rec2, err := DecodeRecord(AppendRecord(nil, rec.Op, rec.ID, rec.G, dict), again)
		if err != nil {
			t.Fatalf("re-decoding an accepted %v record: %v", rec.Op, err)
		}
		if rec2.Op != rec.Op || rec2.ID != rec.ID || (rec2.G == nil) != (rec.G == nil) {
			t.Fatalf("%v record %d round-tripped to %v record %d", rec.Op, rec.ID, rec2.Op, rec2.ID)
		}
		if rec.G != nil {
			graphsEqual(t, rec.G, rec2.G, dict, again)
		}
	})
}
